package monitor

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDropsStalledClients: a client that sends part of a request
// line and then stalls is disconnected once the header timeout passes,
// while the control room keeps answering other connections.
func TestServeDropsStalledClients(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go NewServer(New(Options{}, nil), nil).Serve(context.Background(), ln)

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("healthz while a client stalls: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while a client stalls = %d", resp.StatusCode)
	}

	slack := 2 * time.Second
	if err := stalled.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 400 before hanging up; either way the
	// connection must reach EOF well before the read deadline.
	if _, err := io.ReadAll(stalled); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("stalled connection still open %v after its partial request line", time.Since(start))
		}
		t.Fatalf("reading the stalled connection: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-slack {
		t.Fatalf("stalled connection dropped after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestServeShutsDownGracefully: cancelling Serve's context while a
// report is being computed stops the server only after the request has
// its answer, and Serve then returns nil.
func TestServeShutsDownGracefully(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(New(Options{}, nil), nil)
	entered, release := make(chan struct{}), make(chan struct{})
	srv.Attach("slow", func() any {
		close(entered)
		<-release
		return "done"
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	type answer struct {
		status int
		body   string
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/api/slow")
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, string(body), err}
	}()

	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	a := <-answered
	if a.err != nil || a.status != http.StatusOK || !strings.Contains(a.body, "done") {
		t.Fatalf("in-flight request during shutdown: status %d, body %q, err %v", a.status, a.body, a.err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after a graceful shutdown, want nil", err)
		}
	case <-time.After(shutdownWait + time.Second):
		t.Fatal("Serve did not return after its context was cancelled")
	}
}
