package workloads

// OptNull suite: pointer-discipline models for the optimistic null/
// misuse checker. The paper's client recipe (§4: take a dynamic
// analysis, find its checks, predicate them on likely invariants)
// applied to null checking: every pointer load and store carries a
// dynamic nil check unless the predicated static pass proves the
// address non-null — optimistically assuming loads that never produced
// nil during profiling (the likely-non-null invariant) stay that way.
//
//   - null-mono models a monomorphic pointer discipline: global
//     cursors are installed once from allocations and then only
//     rotated among non-null values, so every profiled load is
//     non-null and the static pass discharges (nearly) every deref
//     check. The shape FastTrack's Figure-5 "right of the red line"
//     benchmarks have for races, transplanted to null checking.
//   - null-flaky models the optimistic failure mode: a rare input
//     range drops a cursor to nil and skips the repair path, refuting
//     the profiled non-null fact at runtime — the speculative run
//     rolls back, re-executing under the generation without that
//     fact, and the adaptive layer refines the fact away.
//
// Nil dereferences recover deterministically under null-checking
// configurations (a nil load produces 0, a nil store is dropped), so
// the flaky model is safe to run wherever a null mask is installed;
// its GenInput keeps the profiling run range (run < 32) benign so the
// likely-non-null facts always form.

func init() {
	register(&Workload{
		Name: "null-mono",
		Kind: Null,
		Notes: "monomorphic cursor rotation: every pointer load is non-null in " +
			"every run, so the predicated static pass discharges the deref checks " +
			"(the null client's analogue of provably race-free workloads)",
		Source: `
			global head = 0;
			global tail = 0;
			global acc = 0;

			func step(k) {
				var h = head;
				var t = tail;
				var v = *h;
				*t = v + k;
				acc = acc + v;
				return v;
			}

			func main() {
				head = alloc(2);
				tail = alloc(2);
				*head = input(1) + 1;
				*tail = input(2) + 1;
				var n = input(0);
				var i = 0;
				while (i < n) {
					var s = step(i);
					if (s % 2 == 0) {
						head = tail;
					} else {
						tail = head;
					}
					i = i + 1;
				}
				print(acc);
				print(*head);
				print(*tail);
			}
		`,
		GenInput: func(run int) []int64 {
			r := newRng(uint64(run) + 101)
			return []int64{60 + r.intn(40), r.intn(50), r.intn(50)}
		},
	})

	register(&Workload{
		Name: "null-flaky",
		Kind: Null,
		Notes: "input-guarded nil escape: profiling observes every cursor load " +
			"non-null (the nil branch is always repaired), but rare large inputs " +
			"skip the repair and refute the likely-non-null fact — the rollback/" +
			"refinement trigger for the null client",
		Source: `
			global cur = 0;
			global slab = 7;
			global sum = 0;
			global drops = 0;

			func touch(a) {
				if (a > 900) {
					cur = 0;
					drops = drops + 1;
				}
				if (a < 1000) {
					cur = &slab;
				}
				var v = *cur;
				sum = sum + v + (a % 5);
			}

			func main() {
				var n = input(0);
				var i = 0;
				while (i < n) {
					touch(input(1 + (i % 8)));
					i = i + 1;
				}
				print(sum);
				print(drops);
			}
		`,
		GenInput: func(run int) []int64 {
			r := newRng(uint64(run) + 211)
			in := []int64{40 + r.intn(40)}
			for i := 0; i < 8; i++ {
				if run < 32 {
					// Profiling range: the nil branch is exercised
					// (values above 900) but always repaired (below
					// 1000), so every load of cur stays non-null.
					in = append(in, r.intn(1000))
				} else {
					// Testing range: values at 1000 and above skip the
					// repair and load a nil cursor.
					in = append(in, r.intn(1300))
				}
			}
			return in
		},
	})
}
