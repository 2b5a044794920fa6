package main

import (
	"valueexpert/cuda"
	"valueexpert/gpu"
	"valueexpert/internal/core"
)

// tracedProfiler wraps the profiler the traced run drives: it forwards
// every interceptor call to the profiler inside a span named for the
// layer, and also spans the kernel window, from Instrumentation
// returning until APIEnd of the launch is entered. It implements
// cuda.Drainer, so the runtime still drains the profiler behind it.
type tracedProfiler struct {
	p      *core.Profiler
	log    *spanLog
	window string // span name for kernel windows
	open   int    // the kernel window in flight, or -1
}

// attachTraced is the attach function the traced run hands to
// cuda.Drive: it attaches the profiler and installs the wrapper in its
// place, the way the daemon chains its snapshotter.
func attachTraced(cfg core.Config, log *spanLog) func(rt *cuda.Runtime) *tracedProfiler {
	return func(rt *cuda.Runtime) *tracedProfiler {
		id := log.begin("core.attach")
		t := &tracedProfiler{p: core.Attach(rt, cfg), log: log, window: "core.kernel_window", open: -1}
		rt.SetInterceptor(t)
		log.end(id)
		return t
	}
}

func (t *tracedProfiler) APIBegin(ev *cuda.APIEvent) {
	if t.p == nil {
		return
	}
	name := "core.api_begin"
	if ev.Kind == cuda.APILaunch {
		name = "core.launch_begin"
	}
	id := t.log.begin(name)
	t.p.APIBegin(ev)
	t.log.end(id)
}

func (t *tracedProfiler) Instrumentation(kernel string) (gpu.AccessFunc, func(int32) bool) {
	var hook gpu.AccessFunc
	var filter func(int32) bool
	if t.p != nil {
		id := t.log.begin("core.instrument")
		hook, filter = t.p.Instrumentation(kernel)
		t.log.end(id)
	}
	t.open = t.log.begin(t.window)
	return hook, filter
}

func (t *tracedProfiler) APIEnd(ev *cuda.APIEvent) {
	name := "core.api_end"
	if ev.Kind == cuda.APILaunch {
		t.closeWindow()
		name = "core.launch_end"
	}
	if t.p == nil {
		return
	}
	id := t.log.begin(name)
	t.p.APIEnd(ev)
	t.log.end(id)
}

// Drain implements cuda.Drainer. The runtime calls it when a kernel
// fails mid-launch, which also ends that kernel's window.
func (t *tracedProfiler) Drain() {
	t.closeWindow()
	if t.p != nil {
		id := t.log.begin("core.drain")
		t.p.Drain()
		t.log.end(id)
	}
}

func (t *tracedProfiler) closeWindow() {
	if t.open >= 0 {
		t.log.end(t.open)
		t.open = -1
	}
}

// windowTimer is the unprofiled twin's interceptor in the traced run: no
// profiler behind it, no instrumentation, only the kernel windows.
func windowTimer(log *spanLog) *tracedProfiler {
	return &tracedProfiler{log: log, window: "gpu.kernel_window", open: -1}
}
