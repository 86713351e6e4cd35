package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// gatewayApps is what every spawned gateway serves: the workloads' apps
// plus the others a production gateway would carry, all with default
// flags.
var gatewayApps = []string{"fibcall", "prime", "gps", "crc32", "geiger", "ultrasonic"}

// gateway is one spawned `raptrack serve` child process.
type gateway struct {
	cmd   *exec.Cmd
	pid   int
	addr  string // session listener
	admin string // http://host:port of the admin endpoint
	http  *http.Client

	exited chan struct{} // closed once the process has been reaped
	mu     sync.Mutex    // guards tail, and addr and admin until start-up returns
	tail   []string      // last stdout lines, for diagnostics
}

// startGateway spawns `raptrack serve` on ephemeral loopback ports with
// its journal (and the pre-written keys) under journalDir, and waits
// until both listeners are announced on its standard output.
func startGateway(bin, journalDir string) (*gateway, error) {
	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-journal", journalDir,
		"-apps", strings.Join(gatewayApps, ","))
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run must not leave its gateway behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning gateway: %w", err)
	}
	g := &gateway{
		cmd:    cmd,
		pid:    cmd.Process.Pid,
		exited: make(chan struct{}),
		http:   &http.Client{Timeout: 10 * time.Second},
	}
	ready := make(chan struct{})
	go g.readStdout(stdout, ready)
	go func() {
		_ = cmd.Wait()
		close(g.exited)
	}()
	select {
	case <-ready:
		return g, nil
	case <-g.exited:
		return nil, fmt.Errorf("gateway exited during start-up: %s", g.lastLines())
	case <-time.After(60 * time.Second):
		g.kill()
		return nil, errors.New("gateway did not announce its listeners within 60s")
	}
}

// readStdout parses the listener announcements, then keeps draining the
// pipe (a full pipe would stall the gateway) while remembering the last
// lines for error messages.
func (g *gateway) readStdout(r io.Reader, ready chan<- struct{}) {
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		g.mu.Lock()
		g.tail = append(g.tail, line)
		if len(g.tail) > 20 {
			g.tail = g.tail[1:]
		}
		if rest, ok := strings.CutPrefix(line, "admin endpoint on "); ok {
			g.admin = "http://" + strings.Fields(rest)[0]
		}
		if rest, ok := strings.CutPrefix(line, "gateway listening on "); ok {
			g.addr = strings.Fields(rest)[0]
		}
		if !announced && g.admin != "" && g.addr != "" {
			announced = true
			close(ready)
		}
		g.mu.Unlock()
	}
}

func (g *gateway) lastLines() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.tail, " | ")
}

// metrics scrapes and parses the admin /metrics endpoint.
func (g *gateway) metrics() (scrape, error) {
	resp, err := g.http.Get(g.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping gateway metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping gateway metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// stop asks the gateway to drain and exit (SIGTERM), escalating to
// SIGKILL if it has not exited after ten seconds, and returns once the
// process is reaped.
func (g *gateway) stop() {
	g.http.CloseIdleConnections()
	select {
	case <-g.exited:
		return
	default:
	}
	_ = g.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-g.exited:
	case <-time.After(10 * time.Second):
		g.kill()
	}
}

func (g *gateway) kill() {
	_ = g.cmd.Process.Kill()
	<-g.exited
}

// rssSampler samples the gateway's VmRSS (bytes) at a fixed period until
// its context ends; wait returns the samples once the goroutine has
// exited.
type rssSampler struct {
	done    chan struct{}
	samples []int64
	err     error
}

func sampleRSS(ctx context.Context, pid int, every time.Duration) *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			st, err := procMem(pid)
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, st.RSS)
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) wait() ([]int64, error) {
	<-s.done
	return s.samples, s.err
}
