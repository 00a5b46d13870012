package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"scikey/internal/clusterd"
)

// TestAwaitCoordinator: a coordinator whose incarnation ends on its own (a
// failed journal append stops it as Close does) ends the daemon with an
// error, so the -cluster supervisor respawns it; SIGTERM drains it and ends
// the daemon cleanly.
func TestAwaitCoordinator(t *testing.T) {
	logf := func(string, ...any) {}
	start := func() *clusterd.Coordinator {
		c, err := clusterd.Start(clusterd.Config{Journal: filepath.Join(t.TempDir(), "coord.journal")})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := start()
	c.Close()
	if err := awaitCoordinator(c, make(chan os.Signal), logf); err == nil {
		t.Error("a coordinator that stopped on its own ended the daemon cleanly")
	}

	c = start()
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGTERM
	if err := awaitCoordinator(c, sig, logf); err != nil {
		t.Errorf("SIGTERM: %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Error("SIGTERM left the coordinator running")
	}
}
