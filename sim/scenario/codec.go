package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Decode reads one scenario from JSON. Unknown fields are rejected so
// a typo in a spec file fails loudly instead of silently running a
// different scenario, and so is anything but whitespace after the
// document: a second document or stray bytes would otherwise be
// silently ignored. The decoded scenario is validated.
func Decode(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if tok, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = fmt.Errorf("unexpected %v", tok)
		}
		return nil, fmt.Errorf("scenario: decode: trailing data after the document: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// DecodeFile decodes and validates the scenario stored at path.
func DecodeFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Encode writes the canonical JSON form of the scenario: two-space
// indentation, struct field order, durations as "29ms" strings, a
// trailing newline. Decode∘Encode is the identity on canonical files,
// which the testdata round-trip test pins byte-for-byte.
func Encode(w io.Writer, sc *Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(sc)
}

// Marshal returns the canonical JSON encoding of the scenario.
func Marshal(sc *Scenario) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
