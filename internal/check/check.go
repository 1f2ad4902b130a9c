// Package check is the range test the configuration validators share.
// A range check written v < lo || v > hi lets NaN through, because every
// comparison with NaN is false; In is written the other way round, so
// NaN lies in no range and an infinity only in a range with that
// infinite bound.
package check

import (
	"fmt"
	"math"
)

// Error is the typed failure of a numeric check: the field that failed,
// the value it held, and the validator's message.
type Error struct {
	Field string
	Value float64
	Msg   string
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

// Fail returns an *Error for field holding v, its message formatted as
// by fmt.Sprintf.
func Fail(field string, v float64, format string, args ...any) error {
	return &Error{Field: field, Value: v, Msg: fmt.Sprintf(format, args...)}
}

// In reports whether lo <= v <= hi; it is false for NaN. Pass
// math.MaxFloat64 as hi for a range unbounded above that still excludes
// +Inf.
func In(v, lo, hi float64) bool { return lo <= v && v <= hi }

// Finite reports whether v is neither NaN nor an infinity.
func Finite(v float64) bool { return In(v, -math.MaxFloat64, math.MaxFloat64) }
