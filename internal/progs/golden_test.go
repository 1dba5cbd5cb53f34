package progs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

// goldenBudget is the instruction budget of the golden runs.
const goldenBudget = 200_000

// goldenRun is what one program's run is pinned by: the sha256 of its
// trace (each event as little-endian PC then value), the instruction
// and event counters, the sha256 of the final machine state (the 32
// general registers, HI, LO and PC, little-endian) and its output.
type goldenRun struct {
	trace             string
	executed, emitted uint64
	state             string
	stdout            string
}

// golden pins every program at goldenBudget.
var golden = map[string]goldenRun{
	"cc1":      {"798cccd27d4c944fe111816897e169550e957acbcd205ee8fb48fa1d3a0f0b13", 200000, 141971, "c206f8ca73a4aa887e0af3d7c07c6895c37ef951d85f3765c1bdecabb83b60aa", ""},
	"compress": {"bc869483ba3457d88b06797e9860fca8aa5153aaef30e6ad07cc003eaa615574", 200000, 152909, "a8d8e3318ead40e3ccddacc3909b59df04eaceeed92b42d5287a70f042252417", ""},
	"go":       {"3f76618f69dc86e72503eed859f12ef6c97a9f0fc6d75ac9d306323bc6c2ab75", 200000, 148853, "ad945b461938c987891cc7ab46c5d46ee9a763b09c9a470c563ab043853bd77b", ""},
	"ijpeg":    {"c0399033ccf3673e91ee3539168200005618d450af89f458d4340eb615cff17e", 200000, 182927, "9e31e656ae819f754de9e971d01c063a4df7386163fb23269be5279bf3f7abc4", ""},
	"li":       {"6cb631e14a892727bdfd47f4c7124b78967975711d0661c0d6f2b674372cea0e", 200000, 117950, "17da1a9743798eb03cb45773f69ea38c49e8c32a2d2d42e121ebf6914b86c172", ""},
	"m88ksim":  {"c8f7ef5cc3b58c46dd59b047a734cd107458fdb3419cbf19e34c8cebeb4aefa7", 200000, 163424, "62db7266257ff2ffa7f935401d593830603d9d683690e688e1c2f02f88960c70", ""},
	"norm":     {"2010cf6b527ee9ec357ed918589ef612a1b31c8dfcd1f839589eaf8055e8a580", 200000, 169232, "f550b4f06b6d893eb33f186a274c43f1c3ceb712b9a55e1ce60e35ccc8023b2d", ""},
	"perl":     {"0ff04d625a50cd86bcdbd2a492cf7a337dc90bb23db8bb1ba736c89b712b5123", 200000, 158981, "9ff88ca2d7c7fab00b3303116ec2fa40b84ac661fb43f65c0800cdd1442d1d7d", ""},
	"vortex":   {"9b702a0e6d5eea4ac3d938cd0e89927b5cd21b4f10b5fd70d58d42f758742fd1", 200000, 156270, "48de7323b548e126993a19ff7c7d1ef47d8953aa19b9948bfee2093e94f3d89f", ""},
}

func traceDigest(tr trace.Trace) string {
	h := sha256.New()
	var b [8]byte
	for _, e := range tr {
		binary.LittleEndian.PutUint32(b[:4], e.PC)
		binary.LittleEndian.PutUint32(b[4:], e.Value)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func stateDigest(c *vm.CPU) string {
	var b []byte
	for _, r := range c.Regs {
		b = binary.LittleEndian.AppendUint32(b, r)
	}
	b = binary.LittleEndian.AppendUint32(b, c.HI)
	b = binary.LittleEndian.AppendUint32(b, c.LO)
	b = binary.LittleEndian.AppendUint32(b, c.PC)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenRuns checks every program against digests recorded before
// the VM's decoded-text, page-cache and chunked-trace paths existed,
// through both entry points: TraceFor (vm.Trace) and a CPU driven by
// Run with its own emit callback.
func TestGoldenRuns(t *testing.T) {
	for _, name := range Names() {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		tr, err := TraceFor(name, goldenBudget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := Program(name)
		if err != nil {
			t.Fatal(err)
		}
		var emitted trace.Trace
		c := vm.New(p, func(pc, v uint32) { emitted = append(emitted, trace.Event{PC: pc, Value: v}) })
		if err := c.Run(goldenBudget); err != nil && !errors.Is(err, vm.ErrBudget) {
			t.Fatalf("%s: run: %v", name, err)
		}
		got := goldenRun{traceDigest(tr), c.Executed, c.Emitted, stateDigest(c), string(c.Stdout)}
		if got != want {
			t.Errorf("%s: got\n\t%q: {%q, %d, %d, %q, %q},\nwant %+v",
				name, name, got.trace, got.executed, got.emitted, got.state, got.stdout, want)
		}
		if d := traceDigest(emitted); d != got.trace {
			t.Errorf("%s: emit-callback trace %s differs from vm.Trace %s", name, d, got.trace)
		}
	}
}

// TestConcurrentTracesOfOneProgram runs several CPUs on one cached
// *asm.Program at once, as a sweep does, and checks that every trace
// equals the golden one: no decoded-text or memory state may be
// shared between CPUs (run under -race by make race).
func TestConcurrentTracesOfOneProgram(t *testing.T) {
	const workers = 4
	for _, name := range []string{"cc1", "li"} {
		digests := make([]string, workers)
		var wg sync.WaitGroup
		for w := range digests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := TraceFor(name, goldenBudget)
				if err != nil {
					t.Error(err)
					return
				}
				digests[w] = traceDigest(tr)
			}()
		}
		wg.Wait()
		for w, d := range digests {
			if d != golden[name].trace {
				t.Errorf("%s: goroutine %d trace %s, want %s", name, w, d, golden[name].trace)
			}
		}
	}
}
