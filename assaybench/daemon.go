package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one assayd child process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	addr   string // API host:port
	pprof  string // pprof host:port
	log    string // path of its stdout+stderr
	exited chan struct{}
}

// freePorts picks n distinct ephemeral loopback ports for daemons to
// bind. All n listeners are open at once, so the kernel cannot hand
// out one port twice.
func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// newDaemon prepares an assayd with a fresh data directory under dir,
// its API and pprof on the given loopback addresses, and the given
// extra flags.
func newDaemon(bin, dir, name, addr, pprof string, extra ...string) (*daemon, error) {
	data := filepath.Join(dir, name+"-data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data", data, "-pprof", pprof}, extra...)
	return &daemon{name: name, cmd: exec.Command(bin, args...), addr: addr, pprof: pprof,
		log: filepath.Join(dir, name+".log"), exited: make(chan struct{})}, nil
}

func (d *daemon) start() error {
	f, err := os.Create(d.log)
	if err != nil {
		return err
	}
	d.cmd.Stdout, d.cmd.Stderr = f, f
	if err := d.cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", d.name, err)
	}
	go func() {
		d.cmd.Wait()
		f.Close()
		close(d.exited)
	}()
	return nil
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon that has not exited after 20 s is killed.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// failure describes a daemon that misbehaved, with the tail of its log.
func (d *daemon) failure(err error) error {
	data, _ := os.ReadFile(d.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return fmt.Errorf("%s: %v\n%s", d.name, err, data)
}

// cpuTicks is the daemon's user+system CPU so far, in clock ticks.
func (d *daemon) cpuTicks() (uint64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parsePidStat(data)
}

// ticksPerSecond is USER_HZ, fixed at 100 on Linux.
const ticksPerSecond = 100

var httpc = &http.Client{Timeout: 30 * time.Second}

// memStats forces a GC in the daemon and reads its MemStats through
// the pprof heap endpoint assayd serves with -pprof.
func (d *daemon) memStats() (memStats, error) {
	resp, err := httpc.Get("http://" + d.pprof + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return memStats{}, d.failure(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return memStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("%s: pprof heap: status %d", d.name, resp.StatusCode)
	}
	return parseMemStats(data)
}

// waitHealthy polls /v1/healthz until it answers 200 and, when
// wantOK, reports status "ok" (a gateway reports "degraded" until
// every member answers). It fails when a daemon exits or the deadline
// passes.
func waitHealthy(addr string, wantOK bool, deadline time.Time, ds []*daemon) error {
	c := &http.Client{Timeout: time.Second}
	for {
		for _, d := range ds {
			select {
			case <-d.exited:
				return d.failure(fmt.Errorf("exited during set-up"))
			default:
			}
		}
		if resp, err := c.Get("http://" + addr + "/v1/healthz"); err == nil {
			var h struct {
				Status string `json:"status"`
			}
			err := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && err == nil && (!wantOK || h.Status == "ok") {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after set-up deadline", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deployment is the set of daemons one workload runs against.
type deployment struct {
	daemons []*daemon
	front   string // the address clients talk to
}

func (dep *deployment) stop() {
	// Gateway first, so it does not watch members disappear.
	for i := len(dep.daemons) - 1; i >= 0; i-- {
		dep.daemons[i].stop()
	}
}

// deploy starts the workload's daemons from cold in dir and returns
// once the front daemon is healthy, with the set-up time measured from
// the first exec. Every daemon gets -data, -pprof and otherwise
// shipped defaults; the gateway workload runs two single-shard workers
// behind a gateway. A port another process took between freePorts and
// the daemon's bind fails that attempt; deploy then tries again on new
// ports, twice at most.
func deploy(bin, dir string, w workload) (*deployment, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		dep, took, err := deployOnce(bin, filepath.Join(dir, strconv.Itoa(attempt)), w)
		if err == nil || attempt == 2 || !strings.Contains(err.Error(), "address already in use") {
			return dep, took, err
		}
	}
}

func deployOnce(bin, dir string, w workload) (*deployment, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	size := []string{"-cols", strconv.Itoa(w.cols), "-rows", strconv.Itoa(w.cols)}
	dep := &deployment{}
	if !w.gateway {
		ports, err := freePorts(2)
		if err != nil {
			return nil, 0, err
		}
		d, err := newDaemon(bin, dir, "worker", ports[0], ports[1], size...)
		if err != nil {
			return nil, 0, err
		}
		dep.daemons = []*daemon{d}
	} else {
		ports, err := freePorts(6)
		if err != nil {
			return nil, 0, err
		}
		var members []map[string]any
		for i := 0; i < 2; i++ {
			d, err := newDaemon(bin, dir, fmt.Sprintf("w%d", i), ports[2*i], ports[2*i+1], append([]string{"-shards", "1"}, size...)...)
			if err != nil {
				return nil, 0, err
			}
			dep.daemons = append(dep.daemons, d)
			members = append(members, map[string]any{"name": d.name, "addr": "http://" + d.addr,
				"profiles": []map[string]any{{"name": profileName, "shards": 1, "cols": w.cols, "rows": w.cols}}})
		}
		spec, err := json.Marshal(map[string]any{"members": members})
		if err != nil {
			return nil, 0, err
		}
		path := filepath.Join(dir, "members.json")
		if err := os.WriteFile(path, spec, 0o644); err != nil {
			return nil, 0, err
		}
		g, err := newDaemon(bin, dir, "gateway", ports[4], ports[5], "-gateway", "-members", path)
		if err != nil {
			return nil, 0, err
		}
		dep.daemons = append(dep.daemons, g)
	}
	front := dep.daemons[len(dep.daemons)-1]
	dep.front = front.addr
	t0 := time.Now()
	for _, d := range dep.daemons {
		if err := d.start(); err != nil {
			dep.stop()
			return nil, 0, err
		}
	}
	if err := waitHealthy(front.addr, w.gateway, t0.Add(60*time.Second), dep.daemons); err != nil {
		dep.stop()
		return nil, 0, err
	}
	return dep, time.Since(t0), nil
}

// heap sums the daemons' MemStats after a forced GC in each.
func (dep *deployment) heap() (memStats, error) {
	var sum memStats
	for _, d := range dep.daemons {
		m, err := d.memStats()
		if err != nil {
			return memStats{}, err
		}
		sum.HeapAlloc += m.HeapAlloc
		sum.TotalAlloc += m.TotalAlloc
		sum.Mallocs += m.Mallocs
		sum.NumGC += m.NumGC
	}
	return sum, nil
}

// cpuTicks sums the daemons' CPU ticks.
func (dep *deployment) cpuTicks() (uint64, error) {
	var sum uint64
	for _, d := range dep.daemons {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, d.failure(err)
		}
		sum += t
	}
	return sum, nil
}
