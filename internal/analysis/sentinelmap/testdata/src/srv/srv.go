// Fixture for sentinelmap: an HTTP package mapping governor sentinels,
// with two of the five and the recovered-panic sentinel missing, and a
// WriteHeader-after-write bug.
package srv

import (
	"errors"
	"fmt"
	"net/http"

	"relquery/internal/governor" // want `sentinel governor\.ErrMemBudget has no HTTP status mapping` `sentinel governor\.ErrRowBudget has no HTTP status mapping` `sentinel join\.ErrPanic has no HTTP status mapping`
)

// WriteErr maps three of the five sentinels; the budget pair falls
// through to the catch-all.
func WriteErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, governor.ErrAdmission):
		w.WriteHeader(http.StatusTooManyRequests)
	case errors.Is(err, governor.ErrDeadline):
		w.WriteHeader(http.StatusGatewayTimeout)
	case errors.Is(err, governor.ErrCanceled):
		w.WriteHeader(499)
	default:
		w.WriteHeader(http.StatusBadRequest)
	}
}

// Late writes the body first: the mapped status never leaves the
// process.
func Late(w http.ResponseWriter, err error) {
	fmt.Fprintf(w, "error: %v", err)
	w.WriteHeader(http.StatusInternalServerError) // want `WriteHeader after a body write on w has no effect`
}

// Ordered is the correct shape.
func Ordered(w http.ResponseWriter, err error) {
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, "error: %v", err)
}

// Branched status writes are out of the sibling-order rule's scope.
func Branched(w http.ResponseWriter, ok bool) {
	if !ok {
		fmt.Fprint(w, "degraded")
		return
	}
	w.WriteHeader(http.StatusOK)
}
