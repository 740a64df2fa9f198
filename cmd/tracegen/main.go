// Command tracegen generates, inspects, and converts instruction traces.
//
// Usage:
//
//	tracegen -bench gcc -insts 1000000 -o gcc.trc          # binary trace
//	tracegen -bench gcc -insts 100000 -format text -o -     # text to stdout
//	tracegen -stats gcc.trc                                  # summarize
//	tracegen -convert gcc.trc -format text -o gcc.txt        # transcode
//
// Each run takes one mode (-bench, -stats or -convert); a second mode, or
// a flag the chosen mode does not read, is a usage error (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"specfetch/internal/program"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark profile to generate from")
		insts     = flag.Int64("insts", 1_000_000, "instructions to generate")
		seed      = flag.Uint64("seed", 1, "dynamic stream seed")
		out       = flag.String("o", "-", "output path ('-' = stdout)")
		format    = flag.String("format", "binary", "output format: binary|text")
		gz        = flag.Bool("gzip", false, "gzip-compress the output")
		imageOut  = flag.String("imageout", "", "also write the benchmark's static image to this path")
		statsPath = flag.String("stats", "", "summarize an existing trace file and exit")
		convert   = flag.String("convert", "", "transcode an existing trace file to -format")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	set["bench"], set["stats"], set["convert"] = *benchName != "", *statsPath != "", *convert != ""
	mode, err := checkFlags(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}

	switch mode {
	case "stats":
		rd, closeFn := openTrace(*statsPath)
		defer closeFn()
		st, err := trace.Scan(rd)
		fail(err)
		pf("records        %d\n", st.Records)
		pf("instructions   %d\n", st.Insts)
		pf("branches       %d (%.2f%%)\n", st.Branches, 100*st.BranchFrac())
		pf("conditionals   %d (%.1f%% taken)\n", st.Conditionals, 100*st.TakenFrac())
		pf("unconditional  %d (%d calls, %d returns, %d indirect)\n",
			st.Unconditional, st.Calls, st.Returns, st.Indirect)

	case "convert":
		rd, closeFn := openTrace(*convert)
		defer closeFn()
		w, flush := openWriter(*out, *format, *gz)
		copyTrace(rd, w)
		fail(flush())

	case "bench":
		prof, ok := synth.ProfileByName(*benchName)
		if !ok {
			fail(fmt.Errorf("unknown benchmark %q", *benchName))
		}
		bench, err := synth.Build(prof)
		fail(err)
		if *imageOut != "" {
			imgF, err := os.Create(*imageOut)
			fail(err)
			fail(program.WriteImage(imgF, bench.Image()))
			fail(imgF.Close())
		}
		rd := bench.NewReader(*seed, *insts)
		w, flush := openWriter(*out, *format, *gz)
		copyTrace(rd, w)
		fail(flush())

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkFlags returns the one mode set names, or "" for none, and rejects
// a command line that sets a second mode or a flag the chosen mode never
// reads. set names the flags in effect: those flag.Visit reports, with
// each mode present only when its value is non-empty.
func checkFlags(set map[string]bool) (string, error) {
	mode := ""
	for _, m := range []string{"stats", "convert", "bench"} {
		if !set[m] {
			continue
		}
		if mode != "" {
			return "", fmt.Errorf("-%s selects a second mode beside -%s; give one", m, mode)
		}
		mode = m
	}
	writes := mode == "bench" || mode == "convert"
	for _, f := range []struct {
		name, needs string
		read        bool
	}{
		{"insts", "-bench", mode == "bench"},
		{"seed", "-bench", mode == "bench"},
		{"imageout", "-bench", mode == "bench"},
		{"o", "-bench or -convert", writes},
		{"format", "-bench or -convert", writes},
		{"gzip", "-bench or -convert", writes},
	} {
		if set[f.name] && !f.read {
			return "", fmt.Errorf("-%s is only read with %s", f.name, f.needs)
		}
	}
	return mode, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

// pf is a checked Printf: a broken stdout is a hard error, not a silently
// truncated stats report.
func pf(format string, args ...any) {
	_, err := fmt.Printf(format, args...)
	fail(err)
}

// openTrace opens a trace file; format (gzip/binary/text) is sniffed.
func openTrace(path string) (trace.Reader, func()) {
	f, err := os.Open(path)
	fail(err)
	rd, err := trace.OpenFile(f)
	fail(err)
	// Read side: a close error cannot lose data, so it is deliberately ignored.
	return rd, func() { _ = f.Close() }
}

// openWriter builds the requested writer over the output path.
func openWriter(path, format string, gzOut bool) (trace.Writer, func() error) {
	var out *os.File
	if path == "-" {
		out = os.Stdout
	} else {
		f, err := os.Create(path)
		fail(err)
		out = f
	}
	closeOut := func() error {
		if out != os.Stdout {
			return out.Close()
		}
		return nil
	}
	switch format {
	case "binary":
		if gzOut {
			w := trace.NewGzipBinaryWriter(out)
			return w, func() error {
				if err := w.Close(); err != nil {
					return err
				}
				return closeOut()
			}
		}
		w := trace.NewBinaryWriter(out)
		return w, func() error {
			if err := w.Flush(); err != nil {
				return err
			}
			return closeOut()
		}
	case "text":
		if gzOut {
			w := trace.NewGzipTextWriter(out)
			return w, func() error {
				if err := w.Close(); err != nil {
					return err
				}
				return closeOut()
			}
		}
		w := trace.NewTextWriter(out)
		return w, func() error {
			if err := w.Flush(); err != nil {
				return err
			}
			return closeOut()
		}
	default:
		fail(fmt.Errorf("unknown format %q (want binary or text)", format))
		return nil, nil
	}
}

// copyTrace streams every record from rd to w.
func copyTrace(rd trace.Reader, w trace.Writer) {
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		fail(err)
		fail(w.Write(rec))
	}
}
