package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMalformedSpecsExit2 pins the spec parsers: a malformed -faults,
// -slo or -breaker value exits 2 before any engine is built.
func TestMalformedSpecsExit2(t *testing.T) {
	for _, args := range [][]string{
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
	} {
		if code := run(context.Background(), args, io.Discard); code != 2 {
			t.Errorf("run %q: exit %d, want 2", args, code)
		}
	}
}

// TestListenLifecycle drives one -listen process: queries, metrics and
// plan explain answer on the one port, and cancelling ctx (the signal)
// drains everything and exits 0.
func TestListenLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-kind", "planar", "-n", "2000", "-shards", "2", "-layout", "kd",
			"-queries", "0", "-listen", "127.0.0.1:0"}, pw)
		pw.Close()
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving on http://"); ok {
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
