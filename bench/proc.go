package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProcs is the GOMAXPROCS the server child runs with: every CPU
// the machine has, as tplserved would get by default.
var serverProcs = runtime.NumCPU()

// readyTimeout bounds how long a booting (or restoring) server may take
// to answer /healthz.
const readyTimeout = 60 * time.Second

// child is one tplserved process under test.
type child struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{} // closed once the process has been reaped
	stderr lockedBuffer
}

// startChild execs the server binary on a free loopback port with the
// given extra flags and waits until it answers /healthz. tplserved
// restores every durable session before it starts serving, so a ready
// child has finished its restore.
func startChild(bin string, extra ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-quiet"}, extra...)
	c := &child{cmd: exec.Command(bin, args...), base: "http://" + addr, done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	c.cmd.Stderr = &c.stderr
	// The kernel kills the child if the benchmark dies first, so no
	// server outlives a crashed or interrupted run.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child carries nothing
		close(c.done)
	}()
	if err := c.waitReady(); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// waitReady polls /healthz until the child answers 200.
func (c *child) waitReady() error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("server exited during boot: %s", c.stderr.String())
		default:
		}
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v: %s", readyTimeout, c.stderr.String())
}

// pid is the child's process id.
func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child — a crash, not a shutdown — and waits until
// it has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only if the process already exited
	<-c.done
}

// usage is a point-in-time reading of a process's resource counters.
type usage struct {
	cpu   time.Duration // user + system CPU
	wchar int64         // bytes passed to write-family syscalls (files and sockets)
	hwmKB int64         // peak resident set size
}

// readUsage reads the counters of pid from /proc.
func readUsage(pid int) (usage, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	var u usage
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15 (proc(5)).
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short %s/stat", dir)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("parsing %s/stat: %v %v", dir, err1, err2)
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	u.cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	if u.wchar, err = procField(dir+"/io", "wchar:"); err != nil {
		return u, err
	}
	if u.hwmKB, err = procField(dir+"/status", "VmHWM:"); err != nil {
		return u, err
	}
	return u, nil
}

// procField returns the first integer after key in a /proc file of
// "key value [unit]" lines.
func procField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// stealTicks reads the machine-wide CPU time counters and returns the
// ticks stolen by the hypervisor and the total, for the share of the
// run the machine spent on other guests.
func stealTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	for _, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		steal = n // the last of the eight
		total += n
	}
	return steal, total, nil
}

// stealClock measures the share of the machine's CPU time the
// hypervisor gave other guests from its start.
type stealClock struct{ steal, total int64 }

func startSteal() stealClock {
	steal, total, _ := stealTicks() // without /proc/stat every share reads 0
	return stealClock{steal, total}
}

// share is the stolen share of the machine's CPU time since start.
func (c stealClock) share() float64 {
	steal, total, err := stealTicks()
	if err != nil || total <= c.total {
		return 0
	}
	return float64(steal-c.steal) / float64(total-c.total)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// lockedBuffer collects a child's stderr (written by the exec copier
// goroutine, read on error paths), keeping at most the last 4 KiB.
type lockedBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > 4096 {
		b.buf = b.buf[len(b.buf)-4096:]
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}
