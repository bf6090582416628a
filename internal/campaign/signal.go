package campaign

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context cancelled on the first SIGINT or
// SIGTERM, for graceful shutdown: campaigns drain in-flight jobs,
// flush their checkpoint, and salvage partial results. Signal handling
// is restored after the first signal, so a second one kills the
// process immediately (the escape hatch when a drain hangs). The
// returned stop releases the signal registration.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// usageError marks a flag-validation failure: an invalid value or
// combination the flag package itself cannot reject.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// Usagef returns a usage error; ExitCode maps it to exit status 2. As
// with fmt.Errorf, a %w verb keeps the wrapped error matchable.
func Usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// IsUsage reports whether err is a flag-validation failure.
func IsUsage(err error) bool {
	var ue *usageError
	return errors.As(err, &ue)
}

// Exit statuses shared by the cmds.
const (
	ExitOK         = 0
	ExitError      = 1 // any failure not covered below
	ExitUsage      = 2 // bad flags or flag combinations
	ExitIncomplete = 3 // interrupted: partial results salvaged, resumable
)

// ExitCode maps a cmd run error to its process exit status.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return ExitOK
	case IsUsage(err):
		return ExitUsage
	case errors.Is(err, ErrIncomplete):
		return ExitIncomplete
	default:
		return ExitError
	}
}
