package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"cmppower/internal/experiment"
	"cmppower/internal/server"
)

// checkSurrogate is doctor check 14: the surrogate fast path must be
// invisible in exact mode and honest in surrogate mode. Concretely:
//
//  1. Exact-mode /v1/run bodies are byte-identical with the surrogate
//     store enabled and disabled, at -j 1, 4, and 16 — the fast path
//     adds exactly nothing unless a caller opts in.
//  2. After a seed-grid warm-up, a surrogate-mode request is answered
//     from the model (source "surrogate") with a positive error bound,
//     and a replayed full simulation of the same query lands inside
//     that bound for both seconds and watts.
func checkSurrogate() error {
	const scale = 0.05
	exactBody := fmt.Sprintf(`{"app":"FFT","n":4,"scale":%g,"seed":1}`, scale)

	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		for _, off := range []bool{false, true} {
			var got []byte
			err := serveOn(server.New(server.Config{Workers: workers, SurrogateOff: off}),
				func(base string) error {
					var err error
					got, err = doctorFetch(base+"/v1/run", exactBody)
					return err
				})
			if err != nil {
				return fmt.Errorf("-j %d surrogate-off=%t: %w", workers, off, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !bytes.Equal(got, ref) {
				return fmt.Errorf("-j %d surrogate-off=%t: exact-mode body differs", workers, off)
			}
		}
	}

	// Surrogate-mode honesty: warm a fit over HTTP, query it, replay the
	// simulation, and hold the response to its advertised bound.
	var sr server.SurrogateRunResponse
	err := serveOn(server.New(server.Config{Workers: 4}), func(base string) error {
		for _, n := range []int{1, 2, 4, 8} {
			for _, mhz := range []float64{3200, 2400, 1760} {
				for seed := 1; seed <= 2; seed++ {
					body := fmt.Sprintf(`{"app":"FFT","n":%d,"scale":%g,"seed":%d,"freq_mhz":%g}`,
						n, scale, seed, mhz)
					if _, err := doctorFetch(base+"/v1/run", body); err != nil {
						return err
					}
				}
			}
		}
		got, err := doctorFetch(base+"/v1/run",
			fmt.Sprintf(`{"app":"FFT","n":4,"scale":%g,"seed":33,"freq_mhz":2400,"mode":"surrogate"}`, scale))
		if err != nil {
			return err
		}
		return json.Unmarshal(got, &sr)
	})
	if err != nil {
		return err
	}
	if sr.Source != "surrogate" || sr.Prediction == nil {
		return fmt.Errorf("warm surrogate-mode query served source %q (fit never activated?)", sr.Source)
	}
	if !(sr.Bound > 0) {
		return fmt.Errorf("surrogate answer advertises no error bound")
	}
	rig, err := experiment.NewRig(scale)
	if err != nil {
		return err
	}
	app, err := appsFor("FFT")
	if err != nil {
		return err
	}
	m, err := rig.RunAppSeeded(context.Background(), app[0], 4, rig.Table.PointFor(2400e6), 33)
	if err != nil {
		return err
	}
	errT := math.Abs(sr.Prediction.Seconds-m.Seconds) / m.Seconds
	errP := math.Abs(sr.Prediction.PowerW-m.PowerW) / m.PowerW
	if errT > sr.Bound || errP > sr.Bound {
		return fmt.Errorf("surrogate answer outside its advertised bound %.4f: errT=%.4f errP=%.4f",
			sr.Bound, errT, errP)
	}
	return nil
}
