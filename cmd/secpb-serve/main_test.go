package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSlowHeadersDisconnected holds the server to its header timeout: a
// client that trickles one header line at a time, never finishing the
// request, is disconnected once readHeaderTimeout has passed, while a
// well-behaved client on the same server is served.
func TestSlowHeadersDisconnected(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("well-behaved client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-behaved client: status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := io.WriteString(conn, "X-Slow: 1\r\n"); err != nil {
					return
				}
			}
		}
	}()

	// The server may answer 408 before closing; either way the request
	// is never served and the connection ends.
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	reply, err := io.ReadAll(bufio.NewReader(conn))
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("trickling client still connected after %v", elapsed)
	}
	if strings.Contains(string(reply), "200 OK") {
		t.Fatalf("trickling client was served: %q", reply)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Fatalf("disconnected after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
