package router

import (
	"testing"
)

// FuzzNormalizeKey feeds arbitrary bodies to the router's front-door
// decoder for each compute endpoint. It may only accept (with a stable,
// non-empty key) or reject with an error — which proxy turns into a
// 400 — and must never panic.
func FuzzNormalizeKey(f *testing.F) {
	chip := `{"name":"bl","chip":{"total_cores":4},"dvfs":{"domains":[{"name":"a","cores":[0,1]},{"name":"b","cores":[2,3],"speed_ratio":0.5}]},"cores":{"classes":[{"name":"c","issue_width":2}],"assign":["c","c","c","c"]},"thermal":{},"memory":{}}`
	f.Add(uint8(0), `{"app":"FFT","n":4}`)
	f.Add(uint8(0), `{"app":"LU","n":2,"scale":0.05,"seed":3,"freq_mhz":600,"faults":"cache=1e-3","dtm":true}`)
	f.Add(uint8(0), `{"app":"FFT","n":2,"mode":"surrogate","chip":`+chip+`}`)
	f.Add(uint8(1), `{"scenario":"II","apps":["Radix","FMM"],"core_counts":[1,2,4],"retries":2}`)
	f.Add(uint8(1), `{"scenario":"I","apps":["FFT"],"chip":`+chip+`}`)
	f.Add(uint8(2), `{"apps":["Radix"],"scale":0.05,"mode":"surrogate"}`)
	f.Add(uint8(2), `{"apps":["FFT"],"chip":{"name":"x","node":"90nm","chip":{"total_cores":8,"layers":2},"dvfs":{},"cores":{},"thermal":{},"memory":{}}}`)
	f.Add(uint8(0), `{"app":"FFT","n":2,"bogus":1}`)
	f.Add(uint8(1), `{"scenario":"I","apps":[`)
	f.Add(uint8(3), `{}`)
	paths := []string{"/v1/run", "/v1/sweep", "/v1/explore", "/v1/unknown"}
	f.Fuzz(func(t *testing.T, sel uint8, body string) {
		path := paths[int(sel)%len(paths)]
		key, err := normalizeKey(path, []byte(body))
		if err != nil {
			return
		}
		if key == "" {
			t.Fatalf("%s %q: accepted with an empty key", path, body)
		}
		again, err := normalizeKey(path, []byte(body))
		if err != nil || again != key {
			t.Fatalf("%s %q: key not stable: %q then %q (%v)", path, body, key, again, err)
		}
	})
}
