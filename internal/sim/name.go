package sim

import "fmt"

// Name is what a deadlock report calls a blocking primitive. Most names
// are fixed strings (Named). A primitive made per object — a directory
// entry's semaphore, a directory fetch — is named by a format and its
// node and address arguments instead (NameOf), formatted only when a
// report reads it, so making one formats nothing.
type Name struct {
	text string // the name, or its format when lazy
	str  string // the format's second argument, if a string (NameOfString)
	node int
	addr uint64
	lazy bool
}

// Named returns the fixed name s.
func Named(s string) Name { return Name{text: s} }

// NameOf returns the name fmt.Sprintf(format, node, addr), formatted
// when String is called.
func NameOf(format string, node int, addr uint64) Name {
	return Name{text: format, node: node, addr: addr, lazy: true}
}

// NameOfString returns the name fmt.Sprintf(format, node, s), formatted
// when String is called. s must not be empty.
func NameOfString(format string, node int, s string) Name {
	return Name{text: format, str: s, node: node, lazy: true}
}

// String formats the name.
func (n Name) String() string {
	switch {
	case !n.lazy:
		return n.text
	case n.str != "":
		return fmt.Sprintf(n.text, n.node, n.str)
	}
	return fmt.Sprintf(n.text, n.node, n.addr)
}
