package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"

	fastbcc "repro"
	"repro/internal/bccdhttp"
	"repro/internal/wire"
)

// httpServer is the Store's HTTP handler on an in-process loopback
// listener, with a client that keeps exactly one connection to it.
type httpServer struct {
	srv    *http.Server
	done   chan struct{}
	client *http.Client
	base   string
}

func startServer(store *fastbcc.Store) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: bccdhttp.NewHandler(store, bccdhttp.Config{})},
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server health check: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("server health check: %s", resp.Status)
	}
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *httpServer) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	<-s.done
}

// query posts pb's wire frame to the binary batch endpoint and decodes
// the answers into *dst, recording the round trip and the decode as
// spans of operation op.
func (s *httpServer) query(tr *tracer, parent int32, op int64, pb *batch, dst *[]fastbcc.Answer) ([]fastbcc.Answer, error) {
	root := tr.begin("http.query", parent, op)
	defer tr.end(root)
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/graphs/"+graphName+"/query/batch", bytes.NewReader(pb.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	id := tr.begin("http.roundtrip", root, op)
	resp, err := s.client.Do(req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	id = tr.begin("wire.read_response", root, op)
	got, _, err := wire.ReadResponse(resp.Body, *dst)
	tr.end(id)
	// Drain to EOF so the connection is reused.
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return nil, err
	}
	*dst = got
	return got, nil
}
