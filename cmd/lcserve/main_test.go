package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"linconstraint"
)

// TestMalformedSpecsExit2 pins the spec parsers: a malformed -faults,
// -slo, -breaker or -replicas value, or a missing -listen, exits 2
// before any engine is built. Every row is otherwise a valid small
// server run under an already-cancelled context, so a row that parses
// by mistake builds, drains and exits 0 instead of serving forever.
func TestMalformedSpecsExit2(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	valid := []string{"-n", "1000", "-listen", "127.0.0.1:0"}
	for _, spec := range [][]string{
		{"-faults", "0:1"},
		{"-faults", "x:1:fail"},
		{"-faults", "0:y:fail"},
		{"-faults", "0:1:boom"},
		{"-faults", "0:1:1.5:2ms"},
		{"-faults", "0:1:0.5:-2ms"},
		{"-faults", "0:1:0.5:2ms,0:1"},
		{"-slo", "p99"},
		{"-slo", "p99=fast"},
		{"-slo", "visited=many"},
		{"-slo", "p50=1ms"},
		{"-breaker", "3"},
		{"-breaker", "x:100ms"},
		{"-breaker", "3:soon"},
		{"-replicas", "0:2x"},
		{"-replicas", "0:2:9"},
		{"-replicas", ":2"},
		{"-replicas", "0:"},
	} {
		args := append(slices.Clip(valid), spec...)
		if code := run(ctx, args, io.Discard); code != 2 {
			t.Errorf("run %q: exit %d, want 2", args, code)
		}
	}
	if code := run(ctx, []string{"-n", "1000"}, io.Discard); code != 2 {
		t.Errorf("run without -listen: exit %d, want 2", code)
	}
}

// TestHalfHeaderIsCut: a connection that sends half a request header
// and then goes quiet is closed by the server once readHeaderTimeout
// passes, instead of being held open for as long as the client likes.
func TestHalfHeaderIsCut(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out readHeaderTimeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := linconstraint.NewDynamicPlanarEngine(linconstraint.EngineConfig{Shards: 1})
	sv := serve(ln, eng, linconstraint.NewMetrics(), linconstraint.ServerConfig{})
	defer sv.drain(eng, 5*time.Second, 0)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	t0 := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(t0.Add(readHeaderTimeout + 10*time.Second))
	n, err := io.Copy(io.Discard, conn) // returns once the server closes
	if took := time.Since(t0); err != nil || took < readHeaderTimeout/2 {
		t.Fatalf("half header: connection ended after %v with %d bytes read and err %v, want the server to close it after ~%v",
			took, n, err, readHeaderTimeout)
	}
}

// TestListenLifecycle drives one process: queries, metrics (text and
// JSON) and plan explain answer on the one port, and cancelling ctx
// (the signal) drains everything and exits 0.
func TestListenLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-kind", "planar", "-n", "2000", "-shards", "2", "-layout", "kd",
			"-listen", "127.0.0.1:0"}, pw)
		pw.Close()
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), " msg=serving addr="); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case code := <-exit:
		t.Fatalf("run exited %d before serving", code)
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its address")
	}

	for _, tc := range []struct{ path, want string }{
		{"/query?op=halfplane&a=0.2&b=0.3", `"lat"`},
		{"/metrics", "engine_run_total_ns_bucket{"},
		{"/metrics.json", `"engine_run_total_ns"`},
		{"/debug/explain?op=halfplane&a=0.25&b=0.1", `"verdict"`},
	} {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: status %d, body lacks %q:\n%.300s", tc.path, resp.StatusCode, tc.want, body)
		}
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d after cancel, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("port still serving after the drain")
	}
}
