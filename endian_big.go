//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package munin

// bigEndian is true here: views.go swaps each element's bytes between the
// host's order and the little-endian page image.
const bigEndian = true
