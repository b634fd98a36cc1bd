//go:build 386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mipsle || mips64le || mips64p32le || nios2 || ppc64le || riscv || riscv64 || sh || wasm

package munin

// bigEndian is false here: the host's byte order is the page image's, and
// every branch on it in views.go compiles to the plain byte copy.
const bigEndian = false
