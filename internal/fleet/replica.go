package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"nbhd/internal/serve"
)

// Replica is one supervised gateway: something with a routable URL that
// can be drained (finish admitted work, refuse new) and closed. The
// supervisor treats in-process and subprocess replicas identically.
type Replica interface {
	// ID names the replica on the ring and in metrics.
	ID() string
	// URL is the replica's HTTP root, e.g. "http://127.0.0.1:9101".
	URL() string
	// Drain stops the replica gracefully: in-flight requests finish, the
	// listener closes, and Drain returns when the replica is quiet (or
	// the context expires).
	Drain(ctx context.Context) error
	// Close releases the replica's resources; safe after Drain.
	Close() error
}

// localReplica runs a serve.Server in this process on a loopback
// listener — the shape tests and in-process nbhdfleet use, where
// replicas share one render cache.
type localReplica struct {
	id      string
	srv     *serve.Server
	httpSrv *http.Server
	url     string

	closeOnce sync.Once
	closeErr  error
}

// NewLocalReplica boots srv on an ephemeral loopback port. The replica
// takes ownership: Close closes srv.
func NewLocalReplica(id string, srv *serve.Server) (Replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", id, err)
	}
	r := &localReplica{
		id:      id,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		url:     "http://" + ln.Addr().String(),
	}
	go func() { _ = r.httpSrv.Serve(ln) }()
	return r, nil
}

func (r *localReplica) ID() string  { return r.id }
func (r *localReplica) URL() string { return r.url }

// Drain follows the gateway's documented shutdown order: flip healthz,
// let admitted requests finish, then close the listener — the same
// sequence cmd/nbhdserve runs on SIGTERM.
func (r *localReplica) Drain(ctx context.Context) error {
	r.srv.Drain()
	return r.httpSrv.Shutdown(ctx)
}

func (r *localReplica) Close() error {
	r.closeOnce.Do(func() {
		_ = r.httpSrv.Close()
		r.closeErr = r.srv.Close()
	})
	return r.closeErr
}

// execReplica runs a gateway as a subprocess (production shape: one
// nbhdserve per replica). Drain sends SIGTERM and waits — nbhdserve's
// signal handler runs the same Drain/Shutdown/Close sequence the local
// replica calls directly.
type execReplica struct {
	id  string
	url string
	cmd *exec.Cmd

	waitOnce sync.Once
	waitErr  error
	done     chan struct{}
}

// NewExecReplica starts argv as a replica subprocess rooted at url.
// Placeholders have already been substituted by the spawner.
func NewExecReplica(id string, argv []string, url string) (Replica, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("fleet: replica %s: empty exec argv", id)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: replica %s: start %q: %w", id, argv[0], err)
	}
	r := &execReplica{id: id, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		r.waitOnce.Do(func() { r.waitErr = cmd.Wait() })
		close(r.done)
	}()
	return r, nil
}

func (r *execReplica) ID() string  { return r.id }
func (r *execReplica) URL() string { return r.url }

func (r *execReplica) Drain(ctx context.Context) error {
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("fleet: replica %s: signal: %w", r.id, err)
	}
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: replica %s: drain: %w", r.id, ctx.Err())
	}
}

func (r *execReplica) Close() error {
	select {
	case <-r.done:
		return nil
	default:
	}
	_ = r.cmd.Process.Kill()
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
	}
	return nil
}

// ExecSpawner builds the SpawnFunc for subprocess replicas from the
// fleet config's Exec argv template: replica i listens on
// 127.0.0.1:BasePort+i, and {id}, {addr}, {port} substitute into every
// argv token.
func ExecSpawner(cfg Config) SpawnFunc {
	cfg = cfg.withDefaults()
	return func(ctx context.Context, idx int, id string) (Replica, error) {
		port := cfg.BasePort + idx
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		argv := make([]string, len(cfg.Exec))
		for i, tok := range cfg.Exec {
			tok = strings.ReplaceAll(tok, "{id}", id)
			tok = strings.ReplaceAll(tok, "{addr}", addr)
			tok = strings.ReplaceAll(tok, "{port}", fmt.Sprintf("%d", port))
			argv[i] = tok
		}
		return NewExecReplica(id, argv, "http://"+addr)
	}
}
