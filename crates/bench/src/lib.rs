//! Support for the `experiments` binary: the [`parallel_map`] worker pool
//! it spreads independent sweep points over, and [`snapshot_json`], the one
//! writer of the tracked `{"key": count}` snapshots (`BENCH_sim.json`,
//! `results/quick_cycles.json`, `results/samcheck_quick.json`).

mod pool;

pub use pool::parallel_map;
use std::fmt::Write as _;

/// Renders `points` as a flat JSON object, keys sorted bytewise, 2-space
/// indent, trailing newline: byte for byte what Python's
/// `json.dump(points, f, indent=2, sort_keys=True)` plus `"\n"` writes for
/// a non-empty map with keys of printable ASCII. The text depends on the key/value set only, so
/// a snapshot regenerates identically on any host and CI gates it with
/// `git diff`.
///
/// # Panics
///
/// On a duplicate key: two sweep points under one name would otherwise
/// collapse into one silently.
pub fn snapshot_json(mut points: Vec<(String, u64)>) -> String {
    points.sort();
    if let Some(w) = points.windows(2).find(|w| w[0].0 == w[1].0) {
        panic!("duplicate snapshot key '{}' ({} and {})", w[0].0, w[0].1, w[1].1);
    }
    let mut out = String::from("{");
    for (i, (key, count)) in points.iter().enumerate() {
        let key = key.replace('\\', "\\\\").replace('"', "\\\"");
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\n  \"{key}\": {count}").expect("writing to a String");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::snapshot_json;

    fn points(p: &[(&str, u64)]) -> Vec<(String, u64)> {
        p.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn snapshot_keys_sort_bytewise_whatever_the_insertion_order() {
        // Bytewise, not alphabetical or numeric: `/` < `0` < `1` < `B` < `a`
        // < `{`, so `k10` sorts before `k2` and `k1/` before `k10`.
        let want = "{\n  \"B\": 5,\n  \"a/k1/x\": 2,\n  \"a/k10\": 3,\n  \"a/k2\": 1,\n  \
                    \"a{\": 4\n}\n";
        let fwd = points(&[("a/k2", 1), ("a/k1/x", 2), ("a/k10", 3), ("a{", 4), ("B", 5)]);
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(snapshot_json(fwd), want);
        assert_eq!(snapshot_json(rev), want);
    }

    /// The first two and the last two entries of the committed
    /// `results/quick_cycles.json`, as `json.dump(.., indent=2,
    /// sort_keys=True)` plus a newline wrote them.
    #[test]
    fn snapshot_text_is_what_python_json_dump_wrote() {
        let got = snapshot_json(points(&[
            ("sched/stack_fused_chip", 13427),
            ("autotune/regions[0..12]/factored/par{i0x2}", 479912),
            ("sched/stack_fused", 1978),
            ("autotune/regions[0..12]/factored", 479912),
        ]));
        let want = "{\n  \"autotune/regions[0..12]/factored\": 479912,\n  \
                    \"autotune/regions[0..12]/factored/par{i0x2}\": 479912,\n  \
                    \"sched/stack_fused\": 1978,\n  \"sched/stack_fused_chip\": 13427\n}\n";
        assert_eq!(got, want);
        assert_eq!(
            snapshot_json(points(&[("only", u64::MAX)])),
            "{\n  \"only\": 18446744073709551615\n}\n"
        );
    }

    #[test]
    fn snapshot_escapes_quotes_and_backslashes() {
        let got = snapshot_json(points(&[("say \"hi\"\\now", 1)]));
        assert_eq!(got, "{\n  \"say \\\"hi\\\"\\\\now\": 1\n}\n");
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot key 'fig12/gcn/cora/full'")]
    fn snapshot_duplicate_key_panics_naming_it() {
        snapshot_json(points(&[
            ("fig12/gcn/cora/full", 7),
            ("fig4b/FuseFlow", 1),
            ("fig12/gcn/cora/full", 7),
        ]));
    }
}
