//! The traced run of a TCP workload: per-layer times and counts.
//!
//! The first `replay` queries client 0 issues after warm-up are replayed
//! on one thread, three ways, with a span around each call into a
//! crate's public function:
//!
//! * **whole** — `QueryService::execute` on a freshly set-up service
//!   (`serve.execute`), whose `ResponseInfo` says which stages the
//!   caches skipped;
//! * **staged** — the stages the service did *not* skip, one by one on a
//!   bare `Pqp` over the same snapshot (`sql.canonicalize`,
//!   `sql.translate`, `pqp.compile`, `pqp.run`), plus the four wire
//!   codec calls on the answer;
//! * **wire** — `NetClient::execute_frames` over one TCP session against
//!   a second, identically set-up fixture (`net.roundtrip`), so both
//!   legs meet the same cache state.
//!
//! Times are means in µs per replayed query; a stage a cache skipped
//! contributes nothing. What the benchmark cannot call directly comes
//! from subtraction: `serve.self_us` is `serve.execute` minus the staged
//! spans, `net.transport_us` is `net.roundtrip` minus `serve.execute`
//! and the codec spans.

use crate::spans::Recorder;
use crate::stats::ratio;
use crate::tcp::{answer_hash, Class, Fixture, Profile, Sizes, CLIENTS};
use polygen_core::algebra::coalesce::ConflictPolicy;
use polygen_core::algebra::join::hash_equi_join_coalesced;
use polygen_core::algebra::merge::hash_merge;
use polygen_core::batch::ColumnBatch;
use polygen_core::relation::PolygenRelation;
use polygen_core::stream::TupleStream;
use polygen_flat::value::{Cmp, Value};
use polygen_index::{IndexCatalog, Probe};
use polygen_lqp::engine::LocalOp;
use polygen_net::codec::ByteWriter;
use polygen_net::protocol::{
    request_frame, request_from_frame, response_frames, response_from_frames, Frame,
};
use polygen_pqp::pqp::{Pqp, PqpOptions};
use polygen_serve::request::{Lang, Request, Response};
use polygen_serve::snapshot::FederationSnapshot;
use polygen_sql::normalize::{canonicalize_algebra, canonicalize_sql};
use polygen_sql::parse_algebra;
use polygen_workload::generator::entity_name;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Query ids of the direct kernel probe start here, clear of the
/// replayed queries'.
const KERNEL_QUERY_ID: u32 = 1_000_000;

/// What the traced run found: metric name → value, and how many
/// replayed answers disagreed between the in-process and wire legs.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics this module measures.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Answers compared across legs.
    pub checked: u64,
    /// Answers that differed.
    pub mismatched: u64,
}

/// One replayed query's in-process outcome.
struct Served {
    request: Request,
    class: Class,
    response: Response,
    plan_hit: bool,
    result_hit: bool,
}

/// The two engines the staged leg calls, configured as the service
/// configures its own: plans compile single-threaded, runs take the
/// thread budget a lone query is allotted.
struct Engines {
    snapshot: Arc<FederationSnapshot>,
    compiler: Pqp,
    runner: Pqp,
}

impl Engines {
    fn over(snapshot: Arc<FederationSnapshot>) -> Engines {
        let engine = |options: PqpOptions| {
            Pqp::new(
                Arc::clone(snapshot.dictionary()),
                Arc::clone(snapshot.registry()),
            )
            .with_options(options)
            .with_indexes(Arc::clone(snapshot.indexes()))
        };
        Engines {
            compiler: engine(PqpOptions {
                threads: 1,
                partitions: 1,
                ..PqpOptions::default()
            }),
            runner: engine(PqpOptions::default().with_threads(CLIENTS)),
            snapshot,
        }
    }
}

/// Replay, probe the kernels, and fold the spans into metrics.
pub fn run(
    seed: u64,
    profile: &Profile,
    sizes: &Sizes,
    rec: &mut Recorder,
) -> Result<Traced, String> {
    let mut out = Traced::default();
    let replay = sizes.replay;
    let per_query = |total: f64| total / replay as f64;

    // Whole leg, then the stateless staged leg with the recorder on and
    // off (alternating which goes first, so neither side always runs on
    // warm processor caches).
    let fixture = Fixture::set_up(seed, profile, sizes)?;
    let replayed: Vec<u32> = fixture.scripts.per_client[0]
        .iter()
        .cycle()
        .skip(sizes.warmup)
        .take(replay)
        .copied()
        .collect();
    let mut served = Vec::with_capacity(replay);
    for (q, &id) in replayed.iter().enumerate() {
        let request = fixture.scripts.texts[id as usize].clone();
        let submitted = request.clone();
        let response = rec.time("serve.execute", None, q as u32, || {
            fixture.service.execute(submitted)
        });
        if matches!(response, Response::Error { .. }) {
            out.mismatched += 1;
        }
        let info = response.info();
        served.push(Served {
            class: fixture.scripts.classes[id as usize],
            plan_hit: info.is_some_and(|i| i.plan_hit),
            result_hit: info.is_some_and(|i| i.result_hit),
            request,
            response,
        });
    }
    let engines = Engines::over(fixture.service.federation().snapshot());
    let mut counts = Counts::default();
    let mut off = Recorder::new(false);
    let (mut traced_time, mut plain_time) = (Duration::ZERO, Duration::ZERO);
    for (q, s) in served.iter().enumerate() {
        let timed = |rec: &mut Recorder, counts: &mut Counts, total: &mut Duration| {
            let start = Instant::now();
            let outcome = staged(&engines, s, q as u32, rec, counts);
            *total += start.elapsed();
            outcome
        };
        if q % 2 == 0 {
            timed(rec, &mut counts, &mut traced_time)?;
            timed(&mut off, &mut Counts::default(), &mut plain_time)?;
        } else {
            timed(&mut off, &mut Counts::default(), &mut plain_time)?;
            timed(rec, &mut counts, &mut traced_time)?;
        }
    }
    kernel_probe(&engines.snapshot, profile, sizes, rec, &mut out.metrics)?;
    drop(engines);
    drop(fixture);

    // Wire leg, on a fixture of its own in the same state.
    let mut fixture = Fixture::set_up(seed, profile, sizes)?;
    let mut session = fixture.sessions.swap_remove(0);
    for (q, s) in served.iter().enumerate() {
        let frames = rec
            .time("net.roundtrip", None, q as u32, || {
                session.execute_frames(&s.request)
            })
            .map_err(|e| format!("traced wire leg: {e}"))?;
        if s.class != Class::Sys {
            out.checked += 1;
            if answer_hash(&frames) != answer_hash(&response_frames(&s.response)) {
                out.mismatched += 1;
            }
        }
    }
    drop(session);
    drop(fixture);

    let m = &mut out.metrics;
    for (metric, span) in [
        ("net.encode_request_us", "net.encode_request"),
        ("net.decode_request_us", "net.decode_request"),
        ("net.encode_response_us", "net.encode_response"),
        ("net.decode_response_us", "net.decode_response"),
        ("net.roundtrip_us", "net.roundtrip"),
        ("serve.execute_us", "serve.execute"),
        ("sql.canonicalize_us", "sql.canonicalize"),
        ("sql.translate_us", "sql.translate"),
        ("pqp.compile_us", "pqp.compile"),
        ("pqp.run_us", "pqp.run"),
    ] {
        m.insert(metric, per_query(rec.total_us(span)));
    }
    let codec = m["net.encode_request_us"]
        + m["net.decode_request_us"]
        + m["net.encode_response_us"]
        + m["net.decode_response_us"];
    let stages =
        m["sql.canonicalize_us"] + m["sql.translate_us"] + m["pqp.compile_us"] + m["pqp.run_us"];
    m.insert("serve.self_us", m["serve.execute_us"] - stages);
    m.insert(
        "net.transport_us",
        m["net.roundtrip_us"] - m["serve.execute_us"] - codec,
    );
    m.insert(
        "net.response_bytes",
        per_query(counts.response_bytes as f64),
    );
    m.insert(
        "net.response_frames",
        per_query(counts.response_frames as f64),
    );
    m.insert(
        "net.tag_bytes_share",
        ratio(counts.tag_bytes as f64, counts.response_bytes as f64),
    );
    m.insert("pqp.rows_out", per_query(counts.rows_out as f64));
    m.insert(
        "pqp.index_routed_ratio",
        ratio(counts.index_routed as f64, replay as f64),
    );
    m.insert(
        "pqp.batch_pipeline_ratio",
        ratio(counts.batch_plans as f64, counts.plans as f64),
    );
    m.insert(
        "harness.span_overhead_ratio",
        ratio(traced_time.as_secs_f64(), plain_time.as_secs_f64()),
    );
    Ok(out)
}

/// Exact counts the staged leg takes; they repeat run to run.
#[derive(Debug, Default)]
struct Counts {
    response_bytes: u64,
    response_frames: u64,
    tag_bytes: u64,
    rows_out: u64,
    index_routed: u64,
    plans: u64,
    batch_plans: u64,
}

/// The staged leg for one query: the stages the service ran for it, and
/// the wire codec on its answer.
fn staged(
    engines: &Engines,
    s: &Served,
    q: u32,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<(), String> {
    let root = rec.begin("staged", None, q);
    let options = engines.compiler.options();
    let schema = engines.snapshot.dictionary().schema();
    let resolver = |rel: &str| -> Option<Vec<String>> {
        schema
            .scheme(rel)
            .map(|s| s.attr_names().map(str::to_string).collect())
    };
    let canonical = rec
        .time("sql.canonicalize", root, q, || match s.request.lang {
            Lang::Algebra => canonicalize_algebra(&s.request.text),
            _ => canonicalize_sql(&s.request.text, &resolver, options.lowering),
        })
        .map_err(|e| format!("canonicalize `{}`: {e}", s.request.text))?;
    if !s.result_hit {
        // A plan-cache hit skipped translation and compilation; the run
        // still needs a plan, so it is compiled outside any span.
        let mut quiet = Recorder::new(false);
        let compile_rec = if s.plan_hit { &mut quiet } else { &mut *rec };
        let expr = compile_rec
            .time("sql.translate", root, q, || parse_algebra(&canonical))
            .map_err(|e| format!("translate `{canonical}`: {e}"))?;
        let compiled = compile_rec
            .time("pqp.compile", root, q, || engines.compiler.compile(expr))
            .map_err(|e| format!("compile `{canonical}`: {e}"))?;
        counts.plans += 1;
        let plan = &compiled.physical;
        counts.batch_plans += u64::from((0..plan.nodes.len()).any(|i| plan.is_batch_pipeline(i)));
        // Catalog reads run against rows only the service can splice
        // in; their execution stays inside `serve.self_us`.
        if s.class != Class::Sys {
            rec.time("pqp.run", root, q, || {
                engines.runner.run_compiled(&compiled)
            })
            .map_err(|e| format!("run `{canonical}`: {e}"))?;
        }
    }
    rec.end(root);

    let wire = rec.begin("codec", None, q);
    let request_bytes = rec.time("net.encode_request", wire, q, || {
        request_frame(&s.request).encode()
    });
    rec.time("net.decode_request", wire, q, || {
        Frame::decode(&request_bytes[4..])
            .ok()
            .and_then(|f| request_from_frame(&f))
    })
    .ok_or("request frame does not round-trip")?;
    let encoded: Vec<Vec<u8>> = rec.time("net.encode_response", wire, q, || {
        response_frames(&s.response)
            .iter()
            .map(Frame::encode)
            .collect()
    });
    rec.time("net.decode_response", wire, q, || {
        let frames: Result<Vec<Frame>, _> =
            encoded.iter().map(|b| Frame::decode(&b[4..])).collect();
        frames.and_then(|f| response_from_frames(&f))
    })
    .map_err(|e| format!("response frames do not round-trip: {e}"))?;
    rec.end(wire);

    counts.response_frames += encoded.len() as u64;
    counts.response_bytes += encoded.iter().map(Vec::len).sum::<usize>() as u64;
    if let Response::Rows { answer, info } = &s.response {
        counts.rows_out += answer.len() as u64;
        counts.index_routed += u64::from(info.index_routed);
        let mut tags = ByteWriter::new();
        for cell in answer.tuples().iter().flatten() {
            tags.put_source_set(&cell.origin);
            tags.put_source_set(&cell.intermediate);
        }
        counts.tag_bytes += tags.into_bytes().len() as u64;
    }
    Ok(())
}

/// Call the kernels under the executor directly, on the federation's
/// own operands: retrieve and tag every local relation (`lqp`), merge
/// the entity operands, then the join query's own pipeline — select on
/// the detail scores, equi-join with the merged entities, project
/// (`core`). With indexes declared, build them and probe the hottest
/// keys (`index`). Times are means per repetition (per probe for
/// `index.probe_us`).
fn kernel_probe(
    snapshot: &FederationSnapshot,
    profile: &Profile,
    sizes: &Sizes,
    rec: &mut Recorder,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (dictionary, registry) = (snapshot.dictionary(), snapshot.registry());
    let iters = sizes.kernel_iters;
    let mut rows_retrieved = 0u64;
    let mut postings = 0u64;
    for i in 0..iters {
        let q = KERNEL_QUERY_ID + i as u32;
        let mut retrieve = |scheme_name: &str| -> Result<Vec<PolygenRelation>, String> {
            let scheme = dictionary
                .schema()
                .scheme(scheme_name)
                .ok_or_else(|| format!("no scheme {scheme_name}"))?;
            scheme
                .local_relations()
                .iter()
                .map(|local| {
                    let tagged = rec
                        .time("lqp.retrieve", None, q, || {
                            registry.execute_tagged(
                                &local.database,
                                &LocalOp::retrieve(&local.relation),
                                dictionary,
                            )
                        })
                        .map_err(|e| format!("retrieve {}: {e}", local.relation))?;
                    rows_retrieved += tagged.len() as u64;
                    let columns: Vec<&str> =
                        tagged.schema().attrs().iter().map(|a| a.as_ref()).collect();
                    let names = scheme.relabel_columns(&local.database, &local.relation, &columns);
                    let names: Vec<&str> = names.iter().map(String::as_str).collect();
                    tagged
                        .rename_attrs(&names)
                        .map_err(|e| format!("relabel {}: {e}", local.relation))
                })
                .collect()
        };
        let entities = retrieve("PENTITY")?;
        let detail = retrieve("PDETAIL")?
            .pop()
            .ok_or("PDETAIL has no local relation")?;
        let (merged, _) = rec
            .time("core.merge", None, q, || {
                hash_merge(&entities, "ENAME", ConflictPolicy::Strict)
            })
            .map_err(|e| format!("merge: {e}"))?;
        let mut batch = ColumnBatch::from_relation(detail);
        let pipeline = rec.begin("core.pipeline", None, q);
        let selected = rec
            .time("core.select", pipeline, q, || {
                batch
                    .select("SCORE", Cmp::Ge, &Value::Int(50))
                    .map(|()| batch.into_relation())
            })
            .map_err(|e| format!("select: {e}"))?;
        let joined = rec
            .time("core.join", pipeline, q, || {
                hash_equi_join_coalesced(&selected, &merged, "ENAME", "ENAME", "ENAME")
            })
            .map_err(|e| format!("join: {e}"))?;
        let mut stream = TupleStream::from_relation(joined);
        rec.time("core.project", pipeline, q, || {
            stream
                .project(&["ENAME", "CATEGORY"])
                .map(|()| stream.into_relation())
        })
        .map_err(|e| format!("project: {e}"))?;
        rec.end(pipeline);

        if profile.indexes {
            let catalog = rec
                .time("index.build", None, q, || {
                    IndexCatalog::build(&profile.index_specs(), registry, dictionary)
                })
                .map_err(|e| format!("index build: {e}"))?;
            let index = catalog
                .lookup("S0", "DETAIL", "DNAME")
                .ok_or("hash index missing from its own catalog")?;
            for key in 0..sizes.replay.min(sizes.entities) {
                let probe = Probe::Point(Value::str(entity_name(key)));
                postings +=
                    rec.time("index.probe", None, q, || index.probe_batch(&probe).len()) as u64;
            }
        }
    }
    let per_iter = |total: f64| total / iters as f64;
    for (metric, span) in [
        ("lqp.retrieve_us", "lqp.retrieve"),
        ("core.merge_us", "core.merge"),
        ("core.select_us", "core.select"),
        ("core.join_us", "core.join"),
        ("core.project_us", "core.project"),
        ("core.pipeline_us", "core.pipeline"),
        ("index.build_us", "index.build"),
    ] {
        m.insert(metric, per_iter(rec.total_us(span)));
    }
    m.insert("lqp.rows_retrieved", per_iter(rows_retrieved as f64));
    let probes = rec.durations_ns("index.probe").len() as f64;
    m.insert("index.probe_us", ratio(rec.total_us("index.probe"), probes));
    m.insert("index.postings_per_probe", ratio(postings as f64, probes));
    Ok(())
}
