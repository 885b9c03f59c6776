//go:build !unix

package httpd

// writeFD takes nothing where the descriptor cannot be written directly:
// Reply.Send's goroutine writes the whole reply.
func writeFD(uintptr, []byte) int { return 0 }
