package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fspnet/internal/serve"
)

// buildServers compiles fspd and fsprouter from the tree the benchmark
// runs in, so the servers measured are the commit's own.
func buildServers(binDir string) error {
	for _, cmd := range []string{"fspd", "fsprouter"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			return fmt.Errorf("building %s (run from the repository root): %v\n%s", cmd, err, out)
		}
	}
	return nil
}

// server is one running child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the stdout drain ends

	stopOnce sync.Once
	stopErr  error
}

// startServer execs bin with args and waits for its "listening on ADDR"
// line.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				if _, rest, ok := strings.Cut(line, "listening on "); ok {
					addr <- strings.TrimSuffix(strings.Fields(rest)[0], ",")
					sent = true
				}
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
		}
		s.url = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s did not start listening within 30s", filepath.Base(bin))
	}
}

// stop sends SIGTERM, waits for exit (SIGKILL after 10 s), and reaps the
// process and its stdout drain. Later calls return the first's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan error, 1)
		go func() { exited <- s.cmd.Wait() }()
		select {
		case s.stopErr = <-exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-exited
			s.stopErr = errors.New("server ignored SIGTERM; killed")
		}
		<-s.done
	})
	return s.stopErr
}

// kill ends a server that failed to start, and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.stop()
}

// vmHWM reads the process's peak resident set size from /proc, in bytes.
func (s *server) vmHWM() (int64, error) { return s.procStatus("VmHWM:") }

// procStatus reads one kB-valued field of /proc/<pid>/status, in bytes.
func (s *server) procStatus(field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// topology is one workload's servers: its fspd workers and, when present,
// the fsprouter in front of them.
type topology struct {
	workers []*server
	router  *server
}

// entry is where client traffic goes.
func (t *topology) entry() string {
	if t.router != nil {
		return t.router.url
	}
	return t.workers[0].url
}

// all returns every started server process.
func (t *topology) all() []*server {
	var out []*server
	for _, s := range t.workers {
		if s != nil {
			out = append(out, s)
		}
	}
	if t.router != nil {
		out = append(out, t.router)
	}
	return out
}

func (t *topology) stop() error {
	var first error
	for _, s := range t.all() {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// peakRSS sums VmHWM over every server process, in MiB.
func (t *topology) peakRSS() (float64, error) {
	var sum int64
	for _, s := range t.all() {
		b, err := s.vmHWM()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return float64(sum) / (1 << 20), nil
}

// topoSpec says what to start.
type topoSpec struct {
	binDir   string
	workers  int
	router   bool
	storeDir string // "" for memory-only
	cache    int
}

// startTopology starts the workers (concurrently), then the router, and
// returns once every /healthz answers 200, with the elapsed time from
// the first exec: the set-up time.
func startTopology(spec topoSpec, hc *http.Client) (*topology, time.Duration, error) {
	t0 := time.Now()
	t := &topology{}
	t.workers = make([]*server, spec.workers)
	errs := make([]error, spec.workers)
	var wg sync.WaitGroup
	for i := range t.workers {
		args := []string{"-addr", "127.0.0.1:0", "-grace", "1s"}
		if spec.cache > 0 {
			args = append(args, "-cache", strconv.Itoa(spec.cache))
		}
		if spec.storeDir != "" {
			args = append(args, "-cache-dir", filepath.Join(spec.storeDir, strconv.Itoa(i)),
				"-cache-disk-cap", strconv.Itoa(storeDiskCap))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.workers[i], errs[i] = startServer(filepath.Join(spec.binDir, "fspd"), args...)
		}()
	}
	wg.Wait()
	first := errors.Join(errs...)
	if first == nil && spec.router {
		args := []string{"-addr", "127.0.0.1:0", "-grace", "1s"}
		for _, w := range t.workers {
			args = append(args, "-worker", w.url)
		}
		t.router, first = startServer(filepath.Join(spec.binDir, "fsprouter"), args...)
	}
	if first == nil {
		first = waitHealthy(hc, t.all())
	}
	if first != nil {
		_ = t.stop()
		return nil, 0, first
	}
	return t, time.Since(t0), nil
}

// workerURLs returns the worker base URLs in ring order — the router's
// -worker order.
func (t *topology) workerURLs() []string {
	out := make([]string, len(t.workers))
	for i, w := range t.workers {
		out[i] = w.url
	}
	return out
}

// waitHealthy polls every server's /healthz until each answers 200.
func waitHealthy(hc *http.Client, servers []*server) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range servers {
		for {
			resp, err := hc.Get(s.url + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy within 60s", s.url)
			}
			sleepPrecise(200 * time.Microsecond)
		}
	}
	return nil
}

// workerStats fetches one fspd's /statusz.
func workerStats(hc *http.Client, url string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := hc.Get(url + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s/statusz: status %d", url, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// rssSampler samples the summed VmRSS of a topology's processes.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler(t *topology) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var sum int64
			for _, s := range t.all() {
				b, err := s.procStatus("VmRSS:")
				if err != nil {
					return
				}
				sum += b
			}
			r.samples = append(r.samples, float64(sum)/(1<<20))
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops sampling and returns the median sample (NaN if a server
// was gone before the first).
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	sort.Float64s(r.samples)
	return quantile(r.samples, 0.5)
}
