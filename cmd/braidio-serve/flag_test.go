package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"braidio/internal/serve"
)

// TestWindowFlag: -window parses like flag.Int up to maxWindow and
// rejects a longer window as a flag error. serve's journal reader takes
// a head at maxWindow and refuses one past it, so every journal the
// daemon writes replays.
func TestWindowFlag(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
		ok   bool
	}{
		{"64", 64, true},
		{"0x40", 64, true},
		{"0", 0, true},
		{"1048576", maxWindow, true},
		{"1048577", 64, false},
		{"9223372036854775807", 64, false},
		{"many", 64, false},
	} {
		fs := flag.NewFlagSet("braidio-serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		w := windowFlag(64)
		fs.Var(&w, "window", "")
		err := fs.Parse([]string{"-window", tc.arg})
		if (err == nil) != tc.ok || int(w) != tc.want {
			t.Errorf("-window %s: window %d, err %v; want %d, ok=%v", tc.arg, w, err, tc.want, tc.ok)
		}
	}
	for _, w := range []int{maxWindow, maxWindow + 1} {
		head := fmt.Sprintf(`{"t":"config","window":%d,"hub_j":10}`+"\n", w)
		if _, err := serve.Replay(strings.NewReader(head)); (err == nil) != (w <= maxWindow) {
			t.Errorf("replaying a window-%d head: err = %v", w, err)
		}
	}
}
