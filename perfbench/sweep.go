package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"banditware/internal/serve"
)

// registrySweep prints the per-stream CreateStream and Load times of
// growing Cycles populations, the reference figures for how the stream
// registry's build cost grows with its size.
func registrySweep() int {
	a := cyclesApp()
	fmt.Printf("%8s %14s %14s %12s %12s\n", "streams", "create_us/str", "load_us/str", "create_s", "load_s")
	for _, n := range []int{512, 1024, 2048, 4096, 8192} {
		pop := population([]*app{a}, n, 1, mix{})
		runtime.GC()
		svc := serve.NewService(serve.ServiceOptions{})
		t0 := time.Now()
		if err := createAll(svc, pop, nil); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		create := time.Since(t0)
		var buf bytes.Buffer
		if err := svc.Save(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		svc = nil
		runtime.GC()
		t1 := time.Now()
		if _, err := serve.Load(bytes.NewReader(buf.Bytes()), serve.ServiceOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		load := time.Since(t1)
		fmt.Printf("%8d %14.1f %14.1f %12.3f %12.3f\n", n,
			create.Seconds()*1e6/float64(n), load.Seconds()*1e6/float64(n), create.Seconds(), load.Seconds())
	}
	return 0
}
