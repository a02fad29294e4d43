package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// wantsSSE reports whether the request opted into progress streaming,
// either with ?stream=sse or an Accept: text/event-stream header.
func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "sse" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamSimulate answers one simulate request as a server-sent event
// stream: a "queued" event immediately, throttled "progress" events
// while the simulation advances its virtual clock (driven by the
// run's trace stream via sim.System.ObserveProgress), then a terminal
// "result" (the same deterministic envelope the blocking path
// returns) or "error" event. A cache hit skips straight to "result".
// SSE necessarily commits the 200 status before the run finishes, so
// failures travel as "error" events rather than status codes.
func (s *Server) streamSimulate(w http.ResponseWriter, r *http.Request, e *entry, cacheStatus string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		// No streaming transport; degrade to the blocking contract.
		select {
		case <-e.done:
		case <-r.Context().Done():
			return
		}
		if e.err != nil {
			if errors.Is(e.err, errOverloaded) {
				s.throttle(w)
			} else {
				errorBody(w, http.StatusUnprocessableEntity, e.err.Error())
			}
			return
		}
		s.writeResult(w, r, e, cacheStatus)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Scenario-Digest", e.digest)
	h.Set("X-Cache", cacheStatus)
	w.WriteHeader(http.StatusOK)

	emit := func(event string, data any) {
		b, err := json.Marshal(data)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		fl.Flush()
	}

	emit("queued", map[string]any{
		"digest":      e.digest,
		"cache":       cacheStatus,
		"queue_depth": s.pool.QueueDepth(),
	})

	ch, cancel := e.subscribe()
	defer cancel()
	for {
		select {
		case p := <-ch:
			emit("progress", p)
		case <-e.done:
			// Drain progress observed before completion, then finish.
			for {
				select {
				case p := <-ch:
					emit("progress", p)
					continue
				default:
				}
				break
			}
			if e.err != nil {
				emit("error", map[string]string{"error": e.err.Error()})
			} else {
				emit("result", resultEnvelope(e))
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}
