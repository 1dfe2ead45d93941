package monitor

import (
	"errors"
	"io"
	"net"
	"net/http"
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
	go NewServer(New(Options{}, nil), nil).Serve(ln)

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
