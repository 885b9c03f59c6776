//go:build unix

package httpd

import "syscall"

// writeFD makes one write(2) of p to fd and returns the bytes it took; an
// error takes none.
func writeFD(fd uintptr, p []byte) int {
	n, err := syscall.Write(int(fd), p)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
