package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// NewHandler exposes a Manager over HTTP/JSON:
//
//	POST   /campaigns            submit a Spec            → {"id": N, "state": "QUEUED"}
//	GET    /campaigns            list all campaigns       → [Status, ...]
//	GET    /campaigns/{id}       one campaign's status    → Status (with live prov problem count)
//	DELETE /campaigns/{id}       cancel                   → {"id": N, "state": "..."}
//	POST   /campaigns/{id}/query provenance SQL           → {"columns": [...], "rows": [[...]]}
//	GET    /healthz              liveness + pool occupancy
//
// The query endpoint takes {"sql": "..."} in the body (or a ?sql=
// parameter for curl convenience) and is the served twin of the
// one-shot CLI's -query flag, per campaign. Handlers are synchronous
// — they spawn no goroutines — so the server's lifetime owns no
// hidden work; long-running campaign execution lives on the
// Manager's own run goroutines.
//
// Request bodies are read through http.MaxBytesReader at maxBodyBytes;
// a larger one is a 413.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		// A misspelt or retired field must not run a defaulted campaign.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		var spec Spec
		if err := dec.Decode(&spec); err != nil {
			writeError(w, decodeStatus(err), fmt.Errorf("decoding spec: %w", err))
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			writeError(w, http.StatusBadRequest, errors.New("decoding spec: trailing data after the JSON object"))
			return
		}
		id, err := m.Submit(spec)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": StateQueued})
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		st, err := m.Status(id)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		state, err := m.Cancel(id)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": state})
	})
	mux.HandleFunc("POST /campaigns/{id}/query", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		var req struct {
			SQL string `json:"sql"`
		}
		if r.Body != nil {
			// An empty or non-JSON body falls through to ?sql=; an
			// oversized one must not.
			err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req)
			if decodeStatus(err) == http.StatusRequestEntityTooLarge {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("decoding query: %w", err))
				return
			}
		}
		if req.SQL == "" {
			req.SQL = r.URL.Query().Get("sql")
		}
		if req.SQL == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing sql (body {\"sql\": ...} or ?sql=)"))
			return
		}
		res, err := m.Query(id, req.SQL)
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		rows := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = make([]string, len(r))
			for j, v := range r {
				rows[i][j] = fmt.Sprint(v)
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"columns": res.Columns, "rows": rows})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		cap, inUse, accounts := m.pool.Occupancy()
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":   true,
			"pool": PoolStatus{Capacity: cap, InUse: inUse, Accounts: accounts},
		})
	})
	return mux
}

func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad campaign id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// maxBodyBytes bounds every request body the API decodes: a Spec or a
// SQL string, both far below it.
const maxBodyBytes = 1 << 20

// decodeStatus maps a body-decoding error to its status: 413 when the
// body ran past maxBodyBytes, 400 for anything else.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func errStatus(err error) int {
	if errors.Is(err, ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore discarderr the status line is already written; a client that hung up gets nothing
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
