package metrics

// CheckAgainstReference exposes the reference comparison to the
// external tests that drive whole simulations.
var CheckAgainstReference = checkAgainstReference
