package modules

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// newRT builds a 1-worker runtime. This in-package test cannot use the
// hiper facade (hiper imports modules), so it goes through core.New.
func newRT() *core.Runtime {
	rt, err := core.New(platform.Default(1), nil)
	if err != nil {
		panic(err)
	}
	return rt
}

type fakeModule struct {
	name      string
	initErr   error
	inited    int
	finalized int
}

func (m *fakeModule) Name() string             { return m.name }
func (m *fakeModule) Init(*core.Runtime) error { m.inited++; return m.initErr }
func (m *fakeModule) Finalize()                { m.finalized++ }

func TestInstallLifecycle(t *testing.T) {
	rt := newRT()
	m := &fakeModule{name: "fake"}
	if err := Install(rt, m); err != nil {
		t.Fatal(err)
	}
	if m.inited != 1 {
		t.Fatal("Init not called")
	}
	if got := Installed(rt, "fake"); got != m {
		t.Fatal("Installed lookup failed")
	}
	if Installed(rt, "missing") != nil {
		t.Fatal("missing module should be nil")
	}
	rt.Launch(func(c *core.Ctx) {})
	rt.Shutdown()
	if m.finalized != 1 {
		t.Fatalf("Finalize called %d times", m.finalized)
	}
}

func TestInstallDuplicateRejected(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	MustInstall(rt, &fakeModule{name: "dup"})
	if err := Install(rt, &fakeModule{name: "dup"}); err == nil {
		t.Fatal("duplicate install must fail")
	}
}

func TestInstallInitErrorRollsBack(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	bad := &fakeModule{name: "bad", initErr: errors.New("boom")}
	if err := Install(rt, bad); err == nil {
		t.Fatal("expected init error")
	}
	if Installed(rt, "bad") != nil {
		t.Fatal("failed module left registered")
	}
	// Name is free again after rollback.
	if err := Install(rt, &fakeModule{name: "bad"}); err != nil {
		t.Fatalf("reinstall after rollback: %v", err)
	}
}

func TestNamesOrdered(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	MustInstall(rt, &fakeModule{name: "a"})
	MustInstall(rt, &fakeModule{name: "b"})
	got := Names(rt)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names = %v", got)
	}
	if Names(newRT()) != nil {
		t.Fatal("fresh runtime should have no modules")
	}
}

func TestMustInstallPanics(t *testing.T) {
	rt := newRT()
	defer rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("MustInstall must panic on error")
		}
	}()
	MustInstall(rt, &fakeModule{name: "x", initErr: errors.New("no")})
}

func TestTimedHelpers(t *testing.T) {
	got := Timed("tmod", "api", func() int { return 41 })
	if got != 41 {
		t.Fatalf("Timed = %d", got)
	}
	ran := false
	TimedVoid("tmod", "api2", func() { ran = true })
	if !ran {
		t.Fatal("TimedVoid did not run fn")
	}
}

func TestFinalizeOrderAcrossModules(t *testing.T) {
	rt := newRT()
	var order []string
	a := &orderModule{name: "a", order: &order}
	b := &orderModule{name: "b", order: &order}
	MustInstall(rt, a)
	MustInstall(rt, b)
	rt.Launch(func(c *core.Ctx) {})
	rt.Shutdown()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("finalize order = %v, want [b a] (LIFO)", order)
	}
}

type orderModule struct {
	name  string
	order *[]string
}

func (m *orderModule) Name() string             { return m.name }
func (m *orderModule) Init(*core.Runtime) error { return nil }
func (m *orderModule) Finalize()                { *m.order = append(*m.order, m.name) }

// registrySize counts the runtimes the registry still holds.
func registrySize() int {
	n := 0
	registry.Range(func(_, _ any) bool { n++; return true })
	return n
}

// lookupModule records, from inside Finalize, whether the registry still
// knows it: the runtime's entry must outlive every module's Finalize.
type lookupModule struct {
	rt             *core.Runtime
	seenInFinalize bool
}

func (m *lookupModule) Name() string                { return "lookup" }
func (m *lookupModule) Init(rt *core.Runtime) error { m.rt = rt; return nil }
func (m *lookupModule) Finalize()                   { m.seenInFinalize = Installed(m.rt, "lookup") == m }

// TestRegistryDropsRuntimeAtShutdown: the registry must not keep a
// runtime — and everything its modules reference — alive after Shutdown.
func TestRegistryDropsRuntimeAtShutdown(t *testing.T) {
	before := registrySize()
	for i := 0; i < 100; i++ {
		rt := newRT()
		first := &lookupModule{}
		MustInstall(rt, first)
		MustInstall(rt, &fakeModule{name: "second"})
		if got := Names(rt); len(got) != 2 {
			t.Fatalf("cycle %d: Names = %v before shutdown", i, got)
		}
		rt.Launch(func(c *core.Ctx) {})
		rt.Shutdown()
		if !first.seenInFinalize {
			t.Fatalf("cycle %d: registry entry dropped before the modules' Finalize ran", i)
		}
		if Installed(rt, "lookup") != nil || Installed(rt, "second") != nil || Names(rt) != nil {
			t.Fatalf("cycle %d: registry still answers for a shut-down runtime: %v", i, Names(rt))
		}
	}
	if got := registrySize(); got != before {
		t.Fatalf("registry holds %d runtimes after 100 install→shutdown cycles, %d before", got, before)
	}
}
