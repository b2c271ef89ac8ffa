package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// paths locates the checkout the benchmark runs in.
type paths struct {
	root  string // the repository: holds go.mod and cmd/smashd
	build string // root/.bench_build: the smashd binary and scratch dirs
	out   string // root/bench/out: span files
}

// findPaths walks up from the working directory to the repository root.
func findPaths() (paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "smashd", "main.go")); err == nil {
			return paths{
				root:  dir,
				build: filepath.Join(dir, ".bench_build"),
				out:   filepath.Join(dir, "bench", "out"),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return paths{}, errors.New("cmd/smashd not found in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles smashd from the checkout's source.
func buildDaemon(ctx context.Context, p paths) (string, error) {
	if err := os.MkdirAll(p.build, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(p.build, "smashd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/smashd")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/smashd: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one launched smashd.
type proc struct {
	role   string // "root", "merge" or "ingest"
	cmd    *exec.Cmd
	stdin  *os.File // write end of its stdin pipe; nil for unfed roles
	stdout *os.File // read end of its stdout pipe (root only; others go to out)
	out    bytes.Buffer
	stderr tailBuffer

	waitOnce sync.Once
	waitErr  error
}

// tailBuffer keeps the last 4 KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// wait reaps the process once; later calls return the same error.
func (p *proc) wait() error {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
	return p.waitErr
}

// kill ends the process's whole group and reaps it.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		// Negative pid: the group Setpgid made, so nothing it forked survives.
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	if p.stdin != nil {
		p.stdin.Close()
	}
	_ = p.wait()
	if p.stdout != nil {
		p.stdout.Close()
	}
}

// cpuSeconds returns user+system CPU of the reaped process.
func (p *proc) cpuSeconds() float64 {
	st := p.cmd.ProcessState
	if st == nil {
		return 0
	}
	return (st.UserTime() + st.SystemTime()).Seconds()
}

// liveCPUSeconds reads the live process's user+system CPU so far from
// /proc/<pid>/stat, in clock ticks of 10 ms.
func (p *proc) liveCPUSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the fields are counted from the ")" that ends the
// command name, which may itself hold spaces.
func parseStatCPU(stat []byte) (float64, error) {
	const ticksPerSecond = 100 // USER_HZ, fixed by the Linux ABI
	end := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[end+1:]))
	if end < 0 || len(fields) < 13 {
		return 0, errors.New("malformed /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB reads the live process's high-water resident set from
// /proc/<pid>/status. wait4's ru_maxrss is not used: it survives exec, so
// a child reports at least what the forking loader held.
func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(raw)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// topology is a launched workload: the fed processes in partition order,
// the root whose stdout carries the results, and everything to reap.
type topology struct {
	procs []*proc
	fed   []*proc
	root  *proc
}

func (t *topology) kill() {
	for _, p := range t.procs {
		p.kill()
	}
}

// launch starts the workload's processes root first and returns once every
// listener accepts connections. childEnv is added to each child's
// environment after GOMAXPROCS.
func launch(ctx context.Context, bin string, s *Spec, w *Workload, childEnv []string) (_ *topology, err error) {
	t := &topology{}
	defer func() {
		if err != nil {
			t.kill()
		}
	}()
	common := []string{
		"-json", "-window", time.Duration(s.Daemon.Window).String(),
		"-workers", strconv.Itoa(s.Daemon.Workers), "-log-level", s.Daemon.LogLevel,
	}
	if w.Stride > 0 {
		common = append(common, "-stride", time.Duration(w.Stride).String())
	}
	env := append([]string{
		"PATH=" + os.Getenv("PATH"),
		"GOMAXPROCS=" + strconv.Itoa(w.Topology.GOMAXPROCS),
	}, childEnv...)

	start := func(role string, fed, results bool, args ...string) (*proc, error) {
		p := &proc{role: role, cmd: exec.Command(bin, append(append([]string{}, common...), args...)...)}
		p.cmd.Env = env
		p.cmd.Stderr = &p.stderr
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		var childEnds []*os.File
		defer func() {
			for _, f := range childEnds {
				f.Close()
			}
		}()
		if fed {
			r, wr, err := os.Pipe()
			if err != nil {
				return nil, err
			}
			p.cmd.Stdin, p.stdin = r, wr
			childEnds = append(childEnds, r)
		}
		if results {
			r, wr, err := os.Pipe()
			if err != nil {
				return nil, err
			}
			p.cmd.Stdout, p.stdout = wr, r
			childEnds = append(childEnds, wr)
		} else {
			p.cmd.Stdout = &p.out
		}
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", role, err)
		}
		t.procs = append(t.procs, p)
		return p, nil
	}

	if w.Topology.Ingest == 0 {
		p, err := start("root", true, true, "-")
		if err != nil {
			return nil, err
		}
		t.root, t.fed = p, []*proc{p}
		return t, nil
	}

	rootAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	children := w.Topology.Ingest
	if w.Topology.Merge > 0 {
		children = 1
	}
	if t.root, err = start("root", false, true,
		"-role", "aggregate", "-cluster-listen", rootAddr, "-expect", strconv.Itoa(children)); err != nil {
		return nil, err
	}
	listeners := []string{rootAddr}
	parent := rootAddr
	if w.Topology.Merge > 0 {
		mergeAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if _, err := start("merge", false, false,
			"-role", "merge", "-cluster-listen", mergeAddr, "-expect", strconv.Itoa(w.Topology.Ingest),
			"-forward", "http://"+rootAddr, "-node", "merge0"); err != nil {
			return nil, err
		}
		listeners = append(listeners, mergeAddr)
		parent = mergeAddr
	}
	if err := awaitListeners(ctx, t, listeners); err != nil {
		return nil, err
	}
	for k := 0; k < w.Topology.Ingest; k++ {
		p, err := start("ingest", true, false,
			"-role", "ingest", "-forward", "http://"+parent, "-node", "shard"+strconv.Itoa(k), "-")
		if err != nil {
			return nil, err
		}
		t.fed = append(t.fed, p)
	}
	return t, nil
}

// freeAddr picks a loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// awaitListeners dials each address until it accepts, failing early when
// a process of the topology has already reported a fatal error.
func awaitListeners(ctx context.Context, t *topology, addrs []string) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range addrs {
		for {
			conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			for _, p := range t.procs {
				// smashd prints "smashd: <error>" before every fatal exit.
				if msg := p.stderr.String(); strings.Contains(msg, "smashd:") {
					return fmt.Errorf("%s failed during start-up: %s", p.role, msg)
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("listener %s did not accept within 10s: %w", addr, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
