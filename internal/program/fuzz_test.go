package program

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadImage feeds arbitrary text to the image parser: no panics, and
// any accepted image must round-trip identically.
func FuzzReadImage(f *testing.F) {
	var good bytes.Buffer
	img := buildSample(&testing.T{})
	if err := WriteImage(&good, img); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("image v1 base 0x0\nplain 3\nret\n")
	f.Add("image v1 base 0x0\nfunc f 0x100\n")
	f.Add("image v1 base 0xfffffffffffffff0\nplain 8\nret\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		img, err := ReadImage(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteImage(&out, img); err != nil {
			t.Fatalf("accepted image failed to serialize: %v", err)
		}
		img2, err := ReadImage(&out)
		if err != nil {
			t.Fatalf("serialized image failed to re-parse: %v", err)
		}
		if img2.NumInsts() != img.NumInsts() || img2.Base() != img.Base() {
			t.Fatalf("round trip changed shape: %d@%s vs %d@%s",
				img.NumInsts(), img.Base(), img2.NumInsts(), img2.Base())
		}
		for pc := img.Base(); pc < img.End(); pc = pc.Next() {
			if img.At(pc) != img2.At(pc) {
				t.Fatalf("round trip changed instruction at %s", pc)
			}
		}
	})
}
