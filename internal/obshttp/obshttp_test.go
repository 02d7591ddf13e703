package obshttp

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"failstop/internal/obs"
)

func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var scrapes obs.Counter
	reg.RegisterCounter("scrapes_total", &scrapes)
	scrapes.Add(3)
	srv, err := Start("127.0.0.1:0", reg.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	addr := srv.Addr()
	if addr == "" {
		t.Fatal("Addr empty after Start")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE scrapes_total counter\nscrapes_total 3\n"; string(body) != want {
		t.Errorf("body = %q, want %q", body, want)
	}

	// The source is re-snapshotted per scrape: a later increment is visible.
	scrapes.Inc()
	resp2, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), "scrapes_total 4") {
		t.Errorf("second scrape = %q, want the incremented count", body2)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, err := Start("127.0.0.1:0", func() obs.Metrics { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post("http://"+srv.Addr()+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %s, want 405", resp.Status)
	}
}

func TestStartRejectsNilSource(t *testing.T) {
	if _, err := Start("127.0.0.1:0", nil); err == nil {
		t.Error("Start with a nil source did not error")
	}
}

func TestCloseStopsServing(t *testing.T) {
	srv, err := Start("127.0.0.1:0", func() obs.Metrics { return nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}
}

func TestNilServerSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Error("nil server has an address")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil server Close = %v", err)
	}
}
