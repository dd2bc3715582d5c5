package main

import (
	"context"
	"net"
	"net/http"

	"qcongest/internal/svc"
)

// daemon is a qcongestd server on a loopback listener, with a client
// that opens at most conns connections to it.
type daemon struct {
	srv  *svc.Server
	hs   *http.Server
	done chan struct{}
	tr   *http.Transport
	cl   *svc.Client
}

// startDaemon serves srv on a fresh loopback port. On error it closes
// srv.
func startDaemon(srv *svc.Server, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		done: make(chan struct{}),
		tr:   &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	d.cl = svc.NewClient("http://" + ln.Addr().String())
	d.cl.HTTPClient = &http.Client{Transport: d.tr}
	return d, nil
}

// Close drains the listener, then closes the server's store, if it has
// one.
func (d *daemon) Close() error {
	d.tr.CloseIdleConnections()
	if err := d.hs.Shutdown(context.Background()); err != nil {
		return err
	}
	<-d.done
	return d.srv.Close()
}
