// Seeded-bug fixture for sentinelmap: relqueryd's status mapping as it
// stood before a recovered engine panic had a status of its own — all five
// governor sentinels handled, join.ErrPanic left to the catch-all, so a
// crash in a join strategy told the client its query was bad.
package srvpanic

import (
	"errors"
	"net/http"

	"relquery/internal/governor" // want `sentinel join\.ErrPanic has no HTTP status mapping`
)

func WriteErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, governor.ErrAdmission):
		w.WriteHeader(http.StatusTooManyRequests)
	case errors.Is(err, governor.ErrDeadline):
		w.WriteHeader(http.StatusGatewayTimeout)
	case errors.Is(err, governor.ErrRowBudget), errors.Is(err, governor.ErrMemBudget):
		w.WriteHeader(http.StatusRequestEntityTooLarge)
	case errors.Is(err, governor.ErrCanceled):
		w.WriteHeader(499)
	default:
		w.WriteHeader(http.StatusBadRequest)
	}
}
