// Package delayfree is a Go reproduction of "Delay-Free Concurrency on
// Faulty Persistent Memory" (Ben-David, Blelloch, Friedman, Wei —
// SPAA 2019): persistent simulations that take concurrent programs
// using Reads, Writes and CASs and make them recoverable from crashes
// with constant computation delay and constant recovery delay.
//
// Because Go's runtime offers no control over cache-line flushing, the
// Parallel Persistent Memory model is simulated in software (see
// DESIGN.md): word-addressable persistent memory with an explicit
// cache-line/flush/fence model and crash injection that genuinely
// destroys volatile state.
//
// The building blocks live in the internal packages, which the
// examples, commands and benchmark import directly:
//
//   - pmem / proc — the simulated PPM substrate: memory, ports,
//     crashable processes;
//   - capsule — the capsule mechanism (Section 2.3): write routines as
//     arrays of capsules, get crash recovery for free;
//   - rcas — recoverable CAS (Section 4), Algorithm 1 and the Attiya et
//     al. variant;
//   - pqueue — the paper's transformations applied to the Michael–Scott
//     queue (Sections 6–7), beside the msq, logqueue and romulus
//     comparators;
//   - pstack — the Section 7 transformation applied to the Treiber
//     stack, evidence of Theorem 7.1's generality;
//   - wcas — writable CAS objects (Section 8), and pmap, the
//     crash-recoverable hash map built on them;
//   - ingress — the sharded batching front-end: MPSC rings and combiner
//     routines that amortize one capsule span and one persist epoch
//     across whole batches;
//   - workload / harness — the Section 10 evaluation: workload holds
//     the measurement and crash-stress round machinery, harness the
//     tables of benchmark kinds, figures, tunables and crash stressers
//     that cmd/benchfigs and cmd/crashstress run.
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's figures.
package delayfree
