package malloc

import (
	"fmt"
	"strings"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// Kind names an allocator design.
type Kind string

// The allocator designs under study.
const (
	KindSerial      Kind = "serial"      // single lock (Solaris 2.6 libc model)
	KindPTMalloc    Kind = "ptmalloc"    // glibc 2.0/2.1 arena list
	KindPerThread   Kind = "perthread"   // one arena per thread
	KindThreadCache Kind = "threadcache" // per-thread magazine over a shared arena pool
	KindLockFree    Kind = "lockfree"    // thread cache with CAS depot + buddy page backend

	// Offloaded variants: the same machines with bookkeeping moved to
	// per-node service threads (service.go). Not listed by Kinds() —
	// experiments that sweep the five designs keep their original matrix;
	// D10 names these explicitly.
	KindThreadCacheSvc Kind = "threadcache-svc"
	KindLockFreeSvc    Kind = "lockfree-svc"
)

// Kinds lists the five allocator designs.
func Kinds() []Kind {
	return []Kind{KindSerial, KindPTMalloc, KindPerThread, KindThreadCache, KindLockFree}
}

// AllKinds lists every kind New accepts: the five designs plus the two
// offloaded variants.
func AllKinds() []Kind {
	return append(Kinds(), KindThreadCacheSvc, KindLockFreeSvc)
}

// ParseKind returns the kind named s, or an error naming every kind New
// accepts; command-line tools vet their allocator flag with it before a
// simulation starts.
func ParseKind(s string) (Kind, error) {
	var names []string
	for _, k := range AllKinds() {
		if string(k) == s {
			return k, nil
		}
		names = append(names, string(k))
	}
	return "", fmt.Errorf("unknown allocator kind %q (want one of %s)", s, strings.Join(names, ", "))
}

// New constructs an allocator of the given kind on as, wrapped in the
// memory-pressure shell (pressure.go): out-of-memory failures trigger an
// emergency reclamation cascade and bounded retries before propagating.
// The shell is a pure pass-through unless an allocation actually fails, so
// every unlimited run's numbers are those of the bare design.
func New(t *sim.Thread, kind Kind, as *vm.AddressSpace, params heap.Params, costs CostParams) (Allocator, error) {
	var al Allocator
	var err error
	switch kind {
	case KindSerial, KindPTMalloc, KindPerThread:
		al, err = newArenaList(t, kind, as, params, costs)
	case KindThreadCache:
		al, err = newThreadCache(t, string(kind), as, params, costs, design{})
	case KindLockFree:
		al, err = newThreadCache(t, string(kind), as, params, costs, design{lockFree: true})
	case KindThreadCacheSvc:
		al, err = newThreadCache(t, string(kind), as, params, costs, design{offload: true})
	case KindLockFreeSvc:
		al, err = newThreadCache(t, string(kind), as, params, costs, design{lockFree: true, offload: true})
	default:
		return nil, fmt.Errorf("malloc: unknown allocator kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return newResilient(al), nil
}
