package traffic

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTrace feeds arbitrary bytes to the CSV trace parser. Any input
// must either be rejected with an error or produce a schedule, never a
// panic, and an accepted trace must round-trip WriteCSV → ParseTrace to
// the same schedule.
func FuzzParseTrace(f *testing.F) {
	f.Add("timestamp_us,client,endpoint,body,class\n" +
		`100,cli,/v1/run,"{""app"":""FFT"",""n"":2}",interactive` + "\n" +
		`250,cli,/v1/explore,{},batch` + "\n")
	f.Add(`100,cli,run,"{""app"":""FFT"",""n"":2}"` + "\n" + `250,other,sweep,"{""apps"":[""LU""]}"` + "\n")
	f.Add("0,c,run,\n0,c,explore,{}\n")
	f.Add(" 7 , spaced ,RUN, {} ,Interactive\r\n")
	f.Add("100,c,run,{}\n50,c,run,{}\n")
	f.Add("100,client\n")
	f.Add(`1,"multi` + "\n" + `line",run,"{""a"":""b,c""}"` + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted trace: %v", err)
		}
		back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of WriteCSV output: %v\ninput %q\nwritten %q", err, in, buf.String())
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the schedule\ninput %q\nfirst  %+v\nsecond %+v", in, s, back)
		}
	})
}
