// Package core implements the Munin runtime system: per-node fault
// handling, the multi-protocol consistency machinery, the delayed update
// queue flush, and distributed synchronization (§3 of the paper).
//
// One System spans the simulated machine. Each node runs a dispatcher
// process — the "Munin root thread" of the prototype, which serves remote
// requests without ever blocking on remote state — and any number of user
// threads. User threads access shared memory through their node's vm.Space;
// protection faults land in the runtime, which executes the consistency
// protocol selected by the object's annotation.
package core

import (
	"errors"
	"fmt"

	"munin/internal/vm"
)

// RuntimeError is a Munin runtime error: the prototype detected misuse of
// an annotation (writing a read-only object, violating a stable sharing
// pattern, ...) at run time and aborted. It is returned from System.Run.
type RuntimeError struct {
	// Node is where the error was detected.
	Node int
	// Addr is the offending object, if any.
	Addr vm.Addr
	// Op describes the operation (e.g. "write fault", "read serve").
	Op string
	// Reason explains the violation.
	Reason string
	// Err is the named cause, if the failure has one (errors.Is finds it).
	Err error
}

// ErrOwnLockRequest is the cause of a lock request that reached the node
// that sent it. Path reversal keeps the probable-owner hints a tree
// rooted at the queue's tail, so this means the hints formed a cycle.
var ErrOwnLockRequest = errors.New("lock request came back to its requester")

func (e *RuntimeError) Error() string {
	if e.Addr != 0 {
		return fmt.Sprintf("munin runtime error: node %d, %s at %#x: %s", e.Node, e.Op, e.Addr, e.Reason)
	}
	return fmt.Sprintf("munin runtime error: node %d, %s: %s", e.Node, e.Op, e.Reason)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// fail aborts the simulation with a RuntimeError. The sim kernel converts
// the panic into the error returned by System.Run, matching the
// prototype's abort-on-runtime-error behaviour.
func fail(node int, addr vm.Addr, op, reason string) {
	panic(&RuntimeError{Node: node, Addr: addr, Op: op, Reason: reason})
}
