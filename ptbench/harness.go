package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ptx/internal/cluster"
	"ptx/internal/serve"
	"ptx/internal/wal"
)

var specNames = []string{"tau1", "tau2v", "tau3"}

// loadSpecs reads the example specs the workloads publish.
func loadSpecs(dir string) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range specNames {
		src, err := os.ReadFile(filepath.Join(dir, name+".pt"))
		if err != nil {
			return nil, err
		}
		out[name] = string(src)
	}
	return out, nil
}

// node is one serve.Server with its own WAL (fsync on every append)
// behind a real loopback listener.
type node struct {
	id    string
	dir   string
	specs map[string]string
	dbs   []*DB

	log *wal.Log
	srv *serve.Server
	hs  *http.Server
	url string
	// served is closed once the listener goroutine has returned.
	served chan struct{}
}

// start (re)opens the node's WAL, rebuilds its registry, attaches the
// log and starts serving on a fresh loopback port.
func (n *node) start() error {
	reg := serve.NewRegistry()
	for _, name := range specNames {
		if err := reg.RegisterSpec(name, n.specs[name]); err != nil {
			return err
		}
	}
	for _, db := range n.dbs {
		if err := reg.RegisterDB(db.Name, db.Src); err != nil {
			return err
		}
	}
	log, err := wal.Open(n.dir, wal.Options{})
	if err != nil {
		return err
	}
	reg.AttachWAL(log)
	srv, err := serve.New(serve.Config{Registry: reg, NodeID: n.id})
	if err != nil {
		log.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		log.Close()
		return err
	}
	n.log, n.srv = log, srv
	n.hs = &http.Server{Handler: srv.Handler()}
	n.url = "http://" + ln.Addr().String()
	n.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln)
	}(n.hs, n.served)
	return nil
}

// stop closes the listener and every connection, then the server and
// its WAL: a crash as the network sees it, with the log left on disk.
func (n *node) stop() {
	if n.hs == nil {
		return
	}
	_ = n.hs.Close()
	<-n.served
	n.srv.Close()
	_ = n.log.Close()
	n.hs = nil
}

// env is one workload's running system: its nodes and, for cluster-rw,
// the coordinator in front of them. front is where clients send.
type env struct {
	nodes []*node
	coord *cluster.Coordinator
	chs   *http.Server
	cdone chan struct{}
	front string
}

func newEnv(root string, specs map[string]string, dbs []*DB, nodes int) (*env, error) {
	e := &env{}
	for i := 0; i < nodes; i++ {
		n := &node{id: fmt.Sprintf("node-%d", i+1), dir: filepath.Join(root, fmt.Sprintf("wal-%d", i+1)), specs: specs, dbs: dbs}
		if err := n.start(); err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
	}
	if nodes == 1 {
		e.front = e.nodes[0].url
		return e, nil
	}
	e.coord = cluster.New(cluster.Config{})
	for _, n := range e.nodes {
		if err := e.coord.Join(n.id, n.url); err != nil {
			e.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.chs = &http.Server{Handler: e.coord.Handler()}
	e.cdone = make(chan struct{})
	go func() {
		defer close(e.cdone)
		_ = e.chs.Serve(ln)
	}()
	e.front = "http://" + ln.Addr().String()
	return e, nil
}

func (e *env) node(id string) *node {
	for _, n := range e.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

func (e *env) close() {
	if e.chs != nil {
		_ = e.chs.Close()
		<-e.cdone
	}
	if e.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.coord.Drain(ctx)
		cancel()
		e.coord.Close()
	}
	for _, n := range e.nodes {
		n.stop()
	}
}

// newClient is one client connection: a keep-alive transport that never
// opens a second connection to the same host.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// post sends body and returns the status, the X-Ptserve-Node header and
// the full response body.
func post(c *http.Client, url string, body []byte) (int, string, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Ptserve-Node"), b, nil
}
