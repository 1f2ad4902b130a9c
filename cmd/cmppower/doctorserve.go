package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"cmppower"
	"cmppower/internal/experiment"
	"cmppower/internal/server"
)

// checkServe boots an ephemeral serving layer at several worker counts
// and requires the HTTP bodies to be byte-identical to marshaling the
// direct library results — the serving layer must add exactly nothing to
// the science. Three properties in one check: the run endpoint round-trips
// a fig3-style measurement, the sweep endpoint round-trips a Scenario I
// sweep, and neither depends on the server's -j.
func checkServe() error {
	const scale = 0.1

	// Direct library references, computed once.
	rig, err := experiment.NewRig(scale)
	if err != nil {
		return err
	}
	rig.Seed = 1
	wantRun, err := libraryRun(rig, "FFT", 4)
	if err != nil {
		return err
	}
	outs, err := sweep(rig, "FFT,LU", false, cmppower.SweepConfig{Workers: 1})
	if err != nil {
		return err
	}
	wantSweep, err := json.Marshal(server.NewSweepResponse("I", rig.BudgetW(), outs))
	if err != nil {
		return err
	}

	probes := []struct {
		path, body string
		want       []byte
	}{
		{"/v1/run", fmt.Sprintf(`{"app":"FFT","n":4,"scale":%g,"seed":1}`, scale), wantRun},
		{"/v1/sweep", fmt.Sprintf(`{"scenario":"I","apps":["FFT","LU"],"core_counts":[1,2,4],"scale":%g}`, scale), wantSweep},
	}
	for _, workers := range []int{1, 4, 16} {
		err := serveOn(server.New(server.Config{Workers: workers}), func(base string) error {
			for _, p := range probes {
				got, err := doctorFetch(base+p.path, p.body)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, p.want) {
					return fmt.Errorf("%s body differs from the direct library result", p.path)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("-j %d: %w", workers, err)
		}
	}
	return nil
}

// libraryRun returns the /v1/run body the serving layers must reproduce:
// the direct library measurement of app on n cores at the nominal point
// with seed 1, marshaled.
func libraryRun(rig *experiment.Rig, app string, n int) ([]byte, error) {
	a, err := cmppower.AppByName(app)
	if err != nil {
		return nil, err
	}
	m, err := rig.RunAppSeeded(context.Background(), a, n, rig.Table.Nominal(), 1)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&server.RunResponse{Measurement: m})
}

// serveOn serves s (a server or a router) on a loopback port, runs fn
// against its base URL, and shuts s down cleanly.
func serveOn(s interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}, fn func(base string) error) (err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Shutdown(context.Background()) // the listen error is the one to report
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if sErr := s.Shutdown(ctx); sErr != nil && err == nil {
			err = sErr
		}
		if sErr := <-serveErr; sErr != nil && err == nil {
			err = sErr
		}
	}()
	return fn("http://" + ln.Addr().String())
}

// doctorFetch GETs url, or POSTs body to it as JSON when body is not
// empty, and returns the 200 response body.
func doctorFetch(url, body string) ([]byte, error) {
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return b, nil
}
