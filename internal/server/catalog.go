package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"unsafe"

	"relquery/internal/relation"
)

// writeJSON renders v with a status code; encoding errors are ignored
// (headers are already out).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON error envelope every failing route returns.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// bodyError maps an upload decode failure to a status: an oversized
// body (http.MaxBytesError) is 413, anything else is the client's 400.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// readUpload reads an upload — a relation or a catalog — into one string,
// once. The body is read straight into a buffer sized from the declared
// Content-Length (negative when there is none), one byte over it so that
// the read which finds the end of a truthful body needs no room, and the
// string is that buffer, not a copy: a truthful client costs its body and
// nothing else. The declaration is a hint only — a body longer than
// declared, or one with none, grows the buffer as it fills; a shorter one
// leaves it part empty.
func readUpload(body io.Reader, declared int64) (string, error) {
	buf, err := appendBody(make([]byte, 0, max(declared, 0)+1), body, math.MaxInt64)
	// buf is never written again: the string may share it.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), err
}

// appendBody appends body, read to its end, to buf, growing buf only when
// it is full. A body of more than limit bytes is an *http.MaxBytesError,
// found by reading one byte past the limit and no further.
func appendBody(buf []byte, body io.Reader, limit int64) ([]byte, error) {
	start := len(buf)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		end := cap(buf)
		if left := limit - int64(len(buf)-start); left < int64(end-len(buf)) {
			end = len(buf) + int(left) + 1
		}
		n, err := body.Read(buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if int64(len(buf)-start) > limit {
			return buf, &http.MaxBytesError{Limit: limit}
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	type tenantInfo struct {
		Name      string `json:"name"`
		Relations int    `json:"relations"`
		Budget    int    `json:"budget_intermediate_rows,omitempty"`
		Timeout   string `json:"timeout,omitempty"`
		MaxRows   int    `json:"max_rows,omitempty"`
		MaxMemory int64  `json:"max_memory_bytes,omitempty"`
	}
	out := []tenantInfo{}
	for _, t := range s.tenantList() {
		info := tenantInfo{
			Name:      t.name,
			Relations: len(t.snapshot().db),
			Budget:    t.limits.MaxIntermediateRows,
			MaxRows:   t.limits.MaxRows,
			MaxMemory: t.limits.MaxMemoryBytes,
		}
		if t.limits.Deadline > 0 {
			info.Timeout = t.limits.Deadline.String()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// knownTenant returns the tenant the route names, or answers 404 and
// returns nil: reading or deleting does not create a tenant.
func (s *Server) knownTenant(w http.ResponseWriter, r *http.Request) *tenant {
	t := s.lookup(r.PathValue("tenant"))
	if t == nil {
		writeError(w, http.StatusNotFound, "no tenant %q", r.PathValue("tenant"))
	}
	return t
}

func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	if t := s.knownTenant(w, r); t != nil {
		writeJSON(w, http.StatusOK, t.listing())
	}
}

// handlePutRelation uploads one relation in the codec text format —
// either bare (scheme line + tuples) or a "relation <name> ... end"
// block. The URL path names the relation; a block header's own name is
// ignored in favor of the path, so the same file can be uploaded under
// several names.
func (s *Server) handlePutRelation(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r.PathValue("tenant"))
	name := r.PathValue("name")
	text, err := readUpload(http.MaxBytesReader(w, r.Body, s.maxBody()), min(r.ContentLength, s.maxBody()))
	if err != nil {
		bodyError(w, err)
		return
	}
	_, rel, err := relation.ParseRelation(text)
	if err != nil {
		bodyError(w, err)
		return
	}
	t.put(name, rel)
	writeJSON(w, http.StatusOK, relationInfo{
		Name:        name,
		Rows:        rel.Len(),
		Scheme:      rel.Scheme().String(),
		Fingerprint: relation.Fingerprint(rel),
	})
}

func (s *Server) handleGetRelation(w http.ResponseWriter, r *http.Request) {
	t := s.knownTenant(w, r)
	if t == nil {
		return
	}
	name := r.PathValue("name")
	rel, ok := t.snapshot().db[name]
	if !ok {
		writeError(w, http.StatusNotFound, "tenant %q has no relation %q", t.name, name)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = relation.WriteRelation(w, name, rel)
}

func (s *Server) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	t := s.knownTenant(w, r)
	if t == nil {
		return
	}
	name := r.PathValue("name")
	if !t.drop(name) {
		writeError(w, http.StatusNotFound, "tenant %q has no relation %q", t.name, name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleLoadCatalog loads a whole database file ("relation ... end"
// blocks) into the tenant's catalog in one request. The body is read once,
// into one buffer, as an upload is; each relation keeps a copy of its own
// block, not the body.
func (s *Server) handleLoadCatalog(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r.PathValue("tenant"))
	text, err := readUpload(http.MaxBytesReader(w, r.Body, s.maxBody()), min(r.ContentLength, s.maxBody()))
	if err != nil {
		bodyError(w, err)
		return
	}
	db, err := relation.ParseDatabase(text)
	if err != nil {
		bodyError(w, err)
		return
	}
	t.loadAll(db)
	writeJSON(w, http.StatusOK, t.listing())
}

// handleCacheReset drops every shared-cache entry (an operator action
// after bulk reloads; entries are fingerprint-keyed so this is about
// memory, not soundness).
func (s *Server) handleCacheReset(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int{"dropped": s.shared.Reset()})
}
