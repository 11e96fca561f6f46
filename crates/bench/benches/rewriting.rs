//! Rewriting-engine performance: experiments E12 and E19.
//!
//! **E12** (printed tables):
//!
//! * Boolean-ring tautology decision throughput, by formula size;
//! * ring products by operand shape (`boolring-product/<shape>`): the
//!   7-atom `lem-rand-ur` shape through the truth-table kernel, and a
//!   14-atom shape of the same size on the pairwise path. Their
//!   per-product times also go into `BENCH_rewriting.json`
//!   (`ring_products`);
//! * the ablation DESIGN.md calls out: ring normal form vs. naive
//!   truth-table enumeration, by atom count;
//! * protocol-term normalization: reducing gleaning collections over
//!   growing concrete networks (the inner loop of every proof passage).
//!
//! **E19** (machine-readable `BENCH_rewriting.json`): rule indexing. Two
//! workloads, each run as two legs in the same process:
//!
//! * **campaign** — the full inv1 proof campaign (init + 27 transition
//!   obligations, case splits and all) through `verify_property_opts`,
//!   exactly what `tls-prove inv1` runs. Wall time per leg; the index's
//!   win here is bounded by how much of the campaign is matching cost
//!   (see EXPERIMENTS E17/E19 — the expensive fires are not).
//! * **fanout** — every obligation of the inv1 campaign runs on its own
//!   clone of the pristine spec with its own engine, so each clone
//!   derives the same secrecy reduction — `PMS \in cpms(<n-message
//!   network>)`, the paper's workhorse `red` for the inv1 secrecy family
//!   — from scratch. One such reduction per obligation clone (init +
//!   27). Only the `normalize` calls are timed (clones and term
//!   construction are workload setup, not normalization).
//!
//! Legs:
//!
//! * **linear** — candidate rules by scanning per-operator rule lists
//!   (the engine before discrimination-tree indexing);
//! * **indexed** — discrimination-tree candidate selection (default).
//!
//! Both legs are bit-identical in every rewrite statistic. Throughput
//! rates are omitted when a leg finishes below the 1 ms measurement
//! floor (same guard as `tls-prove --metrics`).
//!
//! Environment knobs (as `benches/parallel.rs`):
//!
//! * `BENCH_SAMPLES`  — timed repetitions per E19 leg (default 5; best-of-N);
//! * `BENCH_OUT`      — output path (default `<repo>/BENCH_rewriting.json`);
//! * `BENCH_SMOKE=1`  — one product per ring shape plus E19, tiny workload,
//!   temp-dir output (CI smoke);
//! * `BENCH_FANOUT_N` — fan-out network size (default 48; smoke 4);
//! * `BENCH_GIT_REV`, `BENCH_HOSTNAME` — provenance stamps.

use equitls_bench::harness::bench;
use equitls_bench::{bool_world, random_formula, truth_table_tautology};
use equitls_core::prelude::ProverConfig;
use equitls_kernel::term::TermId;
use equitls_obs::json::JsonValue;
use equitls_obs::rng::SplitMix64;
use equitls_obs::sink::Obs;
use equitls_obs::summary::rate_per_sec;
use equitls_rewrite::boolring::{TABLE_MUL_MAX_ATOMS, TABLE_MUL_MIN_PAIRS};
use equitls_rewrite::prelude::*;
use equitls_tls::verify;
use equitls_tls::TlsModel;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_ring_throughput() {
    println!("== boolring-normalize");
    for &size in &[16usize, 64, 256] {
        let (mut store, alg, atoms) = bool_world(8);
        let formulas: Vec<_> = (0..16)
            .map(|seed| random_formula(&mut store, &alg, &atoms, size, seed))
            .collect();
        bench(&format!("boolring-normalize/{size}"), 20, || {
            let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
            for &f in &formulas {
                black_box(norm.proves(&mut store, f).expect("normalizes"));
            }
        });
    }
}

/// A random polynomial of exactly `monomials` distinct monomials over
/// `atoms`, each atom in each monomial with probability one half.
fn random_poly(rng: &mut SplitMix64, atoms: &[TermId], monomials: usize) -> Poly {
    let mut masks = BTreeSet::new();
    while masks.len() < monomials {
        masks.insert(rng.next_u64() & ((1 << atoms.len()) - 1));
    }
    masks.iter().fold(Poly::zero(), |acc, &mask| {
        let mono = atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .fold(Poly::one(), |m, (_, &a)| m.mul(&Poly::atom(a)));
        acc.add(&mono)
    })
}

/// Ring products by operand shape. `lem-rand-ur` is the shape that
/// dominated that lemma's goal normalization: 61 × 61 monomials over 7
/// atoms, inside the truth-table kernel's range. The 14-atom shape has the
/// same monomial counts but too many atoms for truth tables, so it stays
/// on the pairwise path. Each sample multiplies `operands` pairs.
fn bench_ring_products(samples: usize, operands: usize) -> Vec<JsonValue> {
    println!("== boolring-product (operand pairs per sample: {operands})");
    let mut rows = Vec::new();
    for (shape, atom_count, monomials) in [("lem-rand-ur", 7, 61), ("14-atoms", 14, 61)] {
        let (_, _, atoms) = bool_world(atom_count);
        let mut rng = SplitMix64::new(0x5EED ^ atom_count as u64);
        let pairs: Vec<_> = (0..operands)
            .map(|_| {
                let p = random_poly(&mut rng, &atoms, monomials);
                (p, random_poly(&mut rng, &atoms, monomials))
            })
            .collect();
        let table =
            atom_count <= TABLE_MUL_MAX_ATOMS && monomials * monomials >= TABLE_MUL_MIN_PAIRS;
        let kernel = if table { "truth-table" } else { "pairwise" };
        let best = bench(&format!("boolring-product/{shape}"), samples, || {
            for (p, q) in &pairs {
                black_box(p.mul(q));
            }
        });
        rows.push(obj(vec![
            ("shape", JsonValue::String(shape.to_string())),
            ("atoms", num(atom_count as f64)),
            ("monomials", num(monomials as f64)),
            ("kernel", JsonValue::String(kernel.to_string())),
            ("products", num(operands as f64)),
            (
                "us_per_product",
                num(best.as_secs_f64() * 1e6 / operands as f64),
            ),
        ]));
    }
    rows
}

fn bench_ring_vs_truth_table() {
    println!("== tautology-ablation");
    for &atoms_n in &[8usize, 12, 16] {
        let (mut store, alg, atoms) = bool_world(atoms_n);
        let formulas: Vec<_> = (0..8)
            .map(|seed| random_formula(&mut store, &alg, &atoms, 48, seed))
            .collect();
        bench(
            &format!("tautology-ablation/boolean-ring/{atoms_n}"),
            10,
            || {
                let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
                for &f in &formulas {
                    black_box(norm.proves(&mut store, f).expect("normalizes"));
                }
            },
        );
        bench(
            &format!("tautology-ablation/truth-table/{atoms_n}"),
            10,
            || {
                for &f in &formulas {
                    black_box(
                        truth_table_tautology(&store, &alg, &atoms, f)
                            .expect("random formulas use only evaluated connectives"),
                    );
                }
            },
        );
    }
}

fn bench_gleaning_reduction() {
    // Normalize `PMS \in cpms(<n-message network>)` — the workhorse
    // reduction of the secrecy proofs.
    println!("== gleaning-normalize");
    for &n in &[4usize, 16, 64] {
        let mut model = equitls_tls::TlsModel::standard().expect("model builds");
        let spec = &mut model.spec;
        let prin = spec.sort_id("Prin").unwrap();
        let secret = spec.sort_id("Secret").unwrap();
        let rand = spec.sort_id("Rand").unwrap();
        let loc = spec.sort_id("ListOfChoices").unwrap();
        let a = spec.store_mut().fresh_constant("a", prin);
        let b = spec.store_mut().fresh_constant("b", prin);
        let s = spec.store_mut().fresh_constant("s", secret);
        let l = spec.store_mut().fresh_constant("l", loc);
        let intruder = spec.const_term("intruder").unwrap();
        let pm = spec.app("pms", &[a, b, s]).unwrap();
        // Build a network of n ch messages plus one kx to the intruder.
        let mut nw = spec.const_term("void").unwrap();
        for i in 0..n {
            let r = spec.store_mut().fresh_constant(&format!("r{i}"), rand);
            let m = spec.app("ch", &[a, a, b, r, l]).unwrap();
            nw = spec.app("_,_", &[m, nw]).unwrap();
        }
        let ki = spec.app("k", &[intruder]).unwrap();
        let ep = spec.app("epms", &[ki, pm]).unwrap();
        let kx = spec.app("kx", &[a, a, intruder, ep]).unwrap();
        nw = spec.app("_,_", &[kx, nw]).unwrap();
        let cp = spec.app("cpms", &[nw]).unwrap();
        let member = spec.app("_\\in_", &[pm, cp]).unwrap();
        let alg = spec.alg().clone();
        bench(&format!("gleaning-normalize/{n}"), 20, || {
            let mut norm = model.spec.normalizer();
            let out = norm
                .normalize(model.spec.store_mut(), member)
                .expect("reduces");
            assert_eq!(alg.as_constant(model.spec.store(), out), Some(true));
            black_box(out)
        });
    }
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Engine configuration for one leg.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    Linear,
    Indexed,
}

const LEGS: [Leg; 2] = [Leg::Linear, Leg::Indexed];

impl Leg {
    fn label(self) -> &'static str {
        match self {
            Leg::Linear => "linear",
            Leg::Indexed => "indexed",
        }
    }
}

/// The full inv1 proof campaign, once per leg, best-of-`samples`.
fn bench_campaign(samples: usize, smoke: bool) -> Vec<JsonValue> {
    // Smoke proves a cheap lemma instead of the full inv1 score.
    let property = if smoke { "lem-src-honest" } else { "inv1" };
    println!("== campaign (full {property} proof)");
    let mut rows = Vec::new();
    let mut linear_wall = None;
    for leg in LEGS {
        let config = ProverConfig {
            linear_scan: leg == Leg::Linear,
            ..ProverConfig::default()
        };
        let mut best = Duration::MAX;
        let mut obligations = 0usize;
        let mut rewrites = 0u64;
        for _ in 0..=samples.max(1) {
            let mut model = TlsModel::standard().expect("model builds");
            let t0 = Instant::now();
            let report = verify::verify_property_opts(&mut model, property, &config, &Obs::noop())
                .expect("engine");
            let elapsed = t0.elapsed();
            assert!(report.is_proved(), "{property} should prove");
            obligations = report.steps.len() + 1;
            rewrites = report.total_rewrite_stats().rewrites;
            best = best.min(elapsed);
        }
        println!(
            "campaign/{:<24} {best:>12.2?}  (best of {samples})",
            leg.label()
        );
        let base = *linear_wall.get_or_insert(best);
        let mut fields = vec![
            ("leg", JsonValue::String(leg.label().to_string())),
            ("property", JsonValue::String(property.to_string())),
            ("obligations", num(obligations as f64)),
            ("rewrites", num(rewrites as f64)),
            ("wall_ms", num(ms(best))),
            (
                "speedup_vs_linear",
                num(base.as_secs_f64() / best.as_secs_f64().max(1e-9)),
            ),
        ];
        if let Some(rate) = rate_per_sec(obligations as u64, best) {
            fields.push(("obligations_per_sec", num(rate)));
        }
        rows.push(obj(fields));
    }
    rows
}

/// Build, on a clone of the pristine spec, the inv1 secrecy reduction
/// subject: `pms(ca, a, s2) \in cpms(<n ch messages + 1 kx leaking a
/// different premaster secret>)`. The queried secret is *not* in the
/// network, so gleaning must exhaust every message before answering
/// `false` — the common case when the secrecy property holds, and the
/// expensive one. The compared components are constructor-headed
/// (`ca` vs `intruder`), so every gleaning condition *decides* — an
/// arbitrary constant in a compared slot would leave `a = intruder`
/// symbolic and jam the reduction. Every clone replays the same
/// creation sequence, exactly as the prover's obligation clones do.
fn fanout_subject(
    model: &TlsModel,
    n: usize,
) -> (equitls_spec::spec::Spec, equitls_kernel::term::TermId) {
    let mut spec = model.spec.clone();
    let prin = spec.sort_id("Prin").unwrap();
    let secret = spec.sort_id("Secret").unwrap();
    let rand = spec.sort_id("Rand").unwrap();
    let loc = spec.sort_id("ListOfChoices").unwrap();
    let a = spec.store_mut().fresh_constant("a", prin);
    let b = spec.store_mut().fresh_constant("b", prin);
    let s = spec.store_mut().fresh_constant("s", secret);
    let s2 = spec.store_mut().fresh_constant("s2", secret);
    let l = spec.store_mut().fresh_constant("l", loc);
    let intruder = spec.const_term("intruder").unwrap();
    let ca = spec.const_term("ca").unwrap();
    // Leaked client = intruder, queried client = ca: the `epms`
    // comparison in the kx gleaning condition decides `false` on the
    // first component, and the `cpms(void)` base case decides
    // `ca = intruder` to `false` — the whole membership reduces.
    let leaked = spec.app("pms", &[intruder, b, s]).unwrap();
    let queried = spec.app("pms", &[ca, a, s2]).unwrap();
    let mut nw = spec.const_term("void").unwrap();
    for i in 0..n {
        let r = spec.store_mut().fresh_constant(&format!("r{i}"), rand);
        let m = spec.app("ch", &[a, a, b, r, l]).unwrap();
        nw = spec.app("_,_", &[m, nw]).unwrap();
    }
    let ki = spec.app("k", &[intruder]).unwrap();
    let ep = spec.app("epms", &[ki, leaked]).unwrap();
    let kx = spec.app("kx", &[a, a, intruder, ep]).unwrap();
    nw = spec.app("_,_", &[kx, nw]).unwrap();
    let cp = spec.app("cpms", &[nw]).unwrap();
    let subject = spec.app("_\\in_", &[queried, cp]).unwrap();
    (spec, subject)
}

/// Accumulated engine statistics for one fan-out pass.
#[derive(Default)]
struct PassStats {
    rewrites: u64,
    counters: EngineCounters,
}

/// One fan-out pass: normalize the secrecy reduction on each of the
/// `clones` obligation clones with a fresh engine. Returns normalize-only
/// wall time (setup excluded) and the accumulated engine statistics.
fn fanout_pass(model: &TlsModel, clones: usize, n: usize, leg: Leg) -> (Duration, PassStats) {
    // Setup (untimed): the per-obligation spec clones and their subjects.
    let worlds: Vec<_> = (0..clones).map(|_| fanout_subject(model, n)).collect();
    let mut stats = PassStats::default();
    let mut wall = Duration::ZERO;
    for (mut spec, subject) in worlds {
        let alg = spec.alg().clone();
        let mut norm = spec.normalizer();
        norm.set_indexing(leg != Leg::Linear);
        let t0 = Instant::now();
        let nf = norm.normalize(spec.store_mut(), subject).expect("reduces");
        wall += t0.elapsed();
        assert_eq!(
            alg.as_constant(spec.store(), nf),
            Some(false),
            "the queried premaster secret is not in the network"
        );
        stats.rewrites += norm.stats().rewrites;
        stats.counters = stats.counters.merged(norm.engine_counters());
    }
    (wall, stats)
}

/// The cross-clone fan-out workload, both legs, best-of-`samples`.
fn bench_fanout(samples: usize, smoke: bool) -> JsonValue {
    let model = TlsModel::standard().expect("model builds");
    let clones = model.ots.actions.len() + 1;
    let n = std::env::var("BENCH_FANOUT_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 4 } else { 48 });
    println!("== fanout ({clones} obligation clones x secrecy reduction over {n} messages)");
    // Share one index build across clones, as the prover does; the
    // linear leg never consults it.
    model.spec.rules().path_index(model.spec.store());
    let mut rows = Vec::new();
    let mut linear_wall = None;
    for leg in LEGS {
        let mut best = Duration::MAX;
        let mut stats = PassStats::default();
        for _ in 0..=samples.max(1) {
            let (wall, s) = fanout_pass(&model, clones, n, leg);
            if wall < best {
                best = wall;
                stats = s;
            }
        }
        println!(
            "fanout/{:<26} {best:>12.2?}  (best of {samples})",
            leg.label()
        );
        let base = *linear_wall.get_or_insert(best);
        let c = &stats.counters;
        let mut fields = vec![
            ("leg", JsonValue::String(leg.label().to_string())),
            ("normalizations", num(clones as f64)),
            ("normalize_ms", num(ms(best))),
            ("rewrites", num(stats.rewrites as f64)),
            ("index_lookups", num(c.index_lookups as f64)),
            ("index_candidates", num(c.index_candidates as f64)),
            ("index_pruned", num(c.index_pruned as f64)),
            (
                "speedup_vs_linear",
                num(base.as_secs_f64() / best.as_secs_f64().max(1e-9)),
            ),
        ];
        // Sub-millisecond walls are below the measurement floor: omit
        // the rate instead of fabricating one.
        if let Some(rate) = rate_per_sec(clones as u64, best) {
            fields.push(("normalizations_per_sec", num(rate)));
        }
        rows.push(obj(fields));
    }
    obj(vec![
        ("clones", num(clones as f64)),
        ("network_messages", num(n as f64)),
        ("legs", JsonValue::Array(rows)),
    ])
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 5 });
    let out_path = std::env::var("BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            if smoke {
                std::env::temp_dir().join("BENCH_rewriting_smoke.json")
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rewriting.json")
            }
        });

    // Proof search and gleaning recurse deeply; run on a big stack.
    let worker = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(move || {
            // Smoke multiplies one pair per shape, once.
            let products = if smoke {
                bench_ring_products(1, 1)
            } else {
                bench_ring_throughput();
                let products = bench_ring_products(20, 16);
                bench_ring_vs_truth_table();
                bench_gleaning_reduction();
                products
            };
            let campaign = bench_campaign(samples, smoke);
            let fanout = bench_fanout(samples, smoke);
            let stamp = |var: &str| {
                JsonValue::String(std::env::var(var).unwrap_or_else(|_| "unknown".to_string()))
            };
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            let doc = obj(vec![
                ("experiment", JsonValue::String("E19-rewriting".to_string())),
                ("git_rev", stamp("BENCH_GIT_REV")),
                ("hostname", stamp("BENCH_HOSTNAME")),
                ("cores", num(cores as f64)),
                ("samples", num(samples as f64)),
                ("smoke", JsonValue::Bool(smoke)),
                ("ring_products", JsonValue::Array(products)),
                ("campaign", JsonValue::Array(campaign)),
                ("fanout", fanout),
            ]);
            std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH_rewriting.json");
            println!("wrote {}", out_path.display());
        })
        .expect("spawn bench thread");
    worker.join().expect("bench thread panicked");
}
