//! The three TCP workloads' shared machinery: the seeded federation and
//! scripts, a loopback server with two warmed sessions, the closed-loop
//! timed window, and the correctness gate.
//!
//! Server and load generator share one process (`nproc` is 2 here):
//! two server workers, a thread budget of two, and **two closed-loop
//! clients** — callers that wait for their reply, zero think time.

use crate::stats::Fnv;
use polygen_catalog::scenario::Scenario;
use polygen_core::source::SourceSet;
use polygen_flat::relation::Relation;
use polygen_flat::value::Value;
use polygen_index::IndexSpec;
use polygen_net::protocol::{deterministic_bytes, response_frames, Frame};
use polygen_net::{request_for, NetClient, NetServer, NetServerOptions};
use polygen_serve::request::Request;
use polygen_serve::{QueryService, ServeOptions};
use polygen_workload::clients::{ClientMix, MixWeights};
use polygen_workload::WorkloadConfig;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop clients = TCP connections = server workers = thread
/// budget.
pub const CLIENTS: usize = 2;

/// The source `point_churn` refreshes.
const UPDATED_SOURCE: &str = "S0";

/// How many distinct contents the refreshed relation cycles through;
/// version `v` carries content `v % DETAIL_VARIANTS`.
const DETAIL_VARIANTS: u64 = 4;

/// How big a run is. `full` is the measurement; `smoke` only shows that
/// every path still runs and is refused as a basis for any claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Entity pool of the synthetic federation.
    pub entities: usize,
    /// Rows of the detail relation.
    pub detail_rows: usize,
    /// Queries in each client's script; the timed loop wraps around.
    pub script_len: usize,
    /// Untimed queries each client issues from the head of its script.
    pub warmup: usize,
    /// `point_churn`: client 0 refreshes the source after every this
    /// many of its own queries.
    pub update_every: usize,
    /// Queries of client 0's script the traced run replays.
    pub replay: usize,
    /// Repetitions of the direct kernel probe in the traced run.
    pub kernel_iters: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// `tag_tax`: rows per operand.
    pub tag_rows: usize,
}

impl Sizes {
    /// The measured size.
    pub fn full() -> Self {
        Sizes {
            entities: 4_000,
            detail_rows: 16_000,
            script_len: 60_000,
            warmup: 60,
            update_every: 1_000,
            replay: 120,
            kernel_iters: 5,
            setup_repeats: 3,
            tag_rows: 10_000,
        }
    }

    /// A few hundred queries per workload.
    pub fn smoke() -> Self {
        Sizes {
            entities: 200,
            detail_rows: 800,
            script_len: 400,
            warmup: 10,
            update_every: 40,
            replay: 24,
            kernel_iters: 2,
            setup_repeats: 2,
            tag_rows: 400,
        }
    }
}

/// What distinguishes the three TCP workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Query-class weights of the scripts.
    pub weights: MixWeights,
    /// Default plan (256) and result (1024) caches, or none.
    pub caches: bool,
    /// `hash(S0.DETAIL.DNAME)` + `sorted(S0.DETAIL.DSCORE)`, or none.
    pub indexes: bool,
    /// Does client 0 refresh `S0` beside its reads?
    pub updates: bool,
}

impl Profile {
    /// `cold_mix`: the default mix, every query translated, compiled
    /// and executed.
    pub fn cold_mix() -> Self {
        Profile {
            weights: MixWeights::default(),
            caches: false,
            indexes: false,
            updates: false,
        }
    }

    /// `hot_mix`: the same scripts; the 132 distinct texts fit both
    /// caches, so steady state is a result hit on every query.
    pub fn hot_mix() -> Self {
        Profile {
            caches: true,
            ..Profile::cold_mix()
        }
    }

    /// `point_churn`: point 8 / range 3 / sys 1 over two indexes, with
    /// writes beside the reads.
    pub fn point_churn() -> Self {
        Profile {
            weights: MixWeights {
                select: 0,
                join: 0,
                paper: 0,
                point: 8,
                range: 3,
                sys: 1,
            },
            caches: true,
            indexes: true,
            updates: true,
        }
    }

    /// The index declarations of this workload (none without indexes).
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        if self.indexes {
            vec![
                IndexSpec::hash(UPDATED_SOURCE, "DETAIL", "DNAME"),
                IndexSpec::sorted(UPDATED_SOURCE, "DETAIL", "DSCORE"),
            ]
        } else {
            Vec::new()
        }
    }
}

/// The query classes of [`MixWeights`], recovered from the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// `PENTITY [CATEGORY = …]`
    Select,
    /// `((PDETAIL [SCORE >= …]) [ENAME = ENAME] PENTITY) […]`
    Join,
    /// The paper-shaped SQL.
    Paper,
    /// `PDETAIL [ENAME = …]`
    Point,
    /// `PDETAIL [SCORE >= …] [SCORE <= …]`
    Range,
    /// `SELECT … FROM sys.…`
    Sys,
}

impl Class {
    /// Every class, in [`MixWeights`] order.
    pub const ALL: [Class; 6] = [
        Class::Select,
        Class::Join,
        Class::Paper,
        Class::Point,
        Class::Range,
        Class::Sys,
    ];

    fn of(text: &str) -> Class {
        if text.contains("FROM sys.") {
            Class::Sys
        } else if text.starts_with("SELECT") {
            Class::Paper
        } else if text.starts_with("PENTITY") {
            Class::Select
        } else if text.starts_with("PDETAIL [ENAME") {
            Class::Point
        } else if text.starts_with("PDETAIL [SCORE") {
            Class::Range
        } else {
            Class::Join
        }
    }
}

/// Every distinct query text of a run's scripts, and each client's
/// script as indices into it.
#[derive(Debug)]
pub struct Scripts {
    /// Distinct requests, ordered by text.
    pub texts: Vec<Request>,
    /// Class of each distinct request.
    pub classes: Vec<Class>,
    /// `per_client[c][i]` = index into `texts` of client `c`'s `i`-th
    /// query.
    pub per_client: Vec<Vec<u32>>,
    /// FNV of every scripted text, client by client — a pure function
    /// of the seed and the sizes.
    pub hash: u64,
}

impl Scripts {
    /// Generate both clients' scripts from `seed`.
    pub fn generate(seed: u64, profile: &Profile, sizes: &Sizes) -> Scripts {
        let mix = ClientMix {
            clients: CLIENTS,
            queries_per_client: sizes.script_len,
            weights: profile.weights,
            think: Duration::ZERO,
            seed,
            categories: WorkloadConfig::default().categories,
            entities: sizes.entities,
            key_skew: 1.0,
        };
        let raw: Vec<_> = (0..CLIENTS).map(|c| mix.script(c)).collect();
        let mut hasher = Fnv::default();
        let mut distinct = BTreeMap::new();
        for q in raw.iter().flatten() {
            q.text.hash(&mut hasher);
            distinct.insert(q.text.as_str(), q);
        }
        let ids: HashMap<&str, u32> = distinct.keys().copied().zip(0..).collect();
        let texts: Vec<Request> = distinct.values().map(|q| request_for(q)).collect();
        let per_client = raw
            .iter()
            .map(|script| script.iter().map(|q| ids[q.text.as_str()]).collect())
            .collect();
        Scripts {
            classes: texts.iter().map(|r| Class::of(&r.text)).collect(),
            texts,
            per_client,
            hash: hasher.finish(),
        }
    }
}

/// One set-up: the federation, its service behind a loopback server,
/// the scripts, and one warmed TCP session per client.
pub struct Fixture {
    /// The generated federation at version 0.
    pub scenario: Scenario,
    /// One connected session per client, warm-up done. Declared before
    /// the server so they hang up before it shuts down.
    pub sessions: Vec<NetClient>,
    /// The workload's service.
    pub service: Arc<QueryService>,
    /// The front door.
    pub server: NetServer,
    /// Both clients' scripts.
    pub scripts: Scripts,
}

impl Fixture {
    /// Generate, build, spawn and warm up — everything `setup_s` times.
    /// Warm-up is one pass over
    /// every distinct text when caches are on (split between the
    /// sessions), then the first `warmup` queries of each script; the
    /// timed loop carries on from there.
    pub fn set_up(seed: u64, profile: &Profile, sizes: &Sizes) -> Result<Fixture, String> {
        let scenario = polygen_workload::generate(&WorkloadConfig {
            seed,
            sources: 3,
            entities: sizes.entities,
            detail_rows: sizes.detail_rows,
            ..WorkloadConfig::default()
        });
        let scripts = Scripts::generate(seed, profile, sizes);
        let options = if profile.caches {
            ServeOptions::default()
        } else {
            ServeOptions::default().without_caches()
        }
        .with_thread_budget(CLIENTS);
        let service = QueryService::for_scenario(&scenario, options)
            .with_index_specs(&profile.index_specs())
            .map_err(|e| format!("index build: {e}"))?;
        let service = Arc::new(service);
        let server = NetServer::spawn_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            NetServerOptions {
                workers: CLIENTS,
                ..NetServerOptions::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr();
        let sessions = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let scripts = &scripts;
                    scope.spawn(move || -> Result<NetClient, String> {
                        let mut session =
                            NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                        let distinct = scripts
                            .texts
                            .iter()
                            .skip(c)
                            .step_by(CLIENTS)
                            .filter(|_| profile.caches);
                        let head = scripts.per_client[c]
                            .iter()
                            .take(sizes.warmup)
                            .map(|&id| &scripts.texts[id as usize]);
                        for request in distinct.chain(head) {
                            session
                                .execute_frames(request)
                                .map_err(|e| format!("warm-up: {e}"))?;
                        }
                        Ok(session)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Fixture {
            scenario,
            service,
            server,
            scripts,
            sessions,
        })
    }

    /// `S0`'s relations at `version`: the entity relation as generated,
    /// the detail relation with every score shifted by a pure function
    /// of the version.
    pub fn source_relations(&self, version: u64) -> Vec<Relation> {
        let shift = i64::try_from(version % DETAIL_VARIANTS).expect("small") * 7;
        self.scenario
            .database(UPDATED_SOURCE)
            .expect("generated federation has S0")
            .relations
            .iter()
            .map(|rel| {
                if rel.name() != "DETAIL" || shift == 0 {
                    return rel.clone();
                }
                let rows = rel
                    .rows()
                    .iter()
                    .map(|row| {
                        let mut row = row.clone();
                        if let Value::Int(score) = row[2] {
                            row[2] = Value::Int((score + shift) % 100);
                        }
                        row
                    })
                    .collect();
                Relation::from_rows(Arc::clone(rel.schema()), rows).expect("same arity")
            })
            .collect()
    }

    /// The federation as it stands after `version` refreshes of `S0`.
    pub fn scenario_at(&self, version: u64) -> Scenario {
        let mut scenario = self.scenario.clone();
        let relations = self.source_relations(version);
        scenario
            .databases
            .iter_mut()
            .find(|d| d.name == UPDATED_SOURCE)
            .expect("generated federation has S0")
            .relations = relations;
        scenario
    }
}

/// What one client saw during the timed window.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Round trip of every query, send to terminal frame, in issue
    /// order.
    pub lat_ns: Vec<u64>,
    /// When each answer was complete, ns since the window opened.
    pub done_ns: Vec<u64>,
    /// Queries issued, warm-up not counted.
    pub issued: usize,
    /// Transport errors, `Error` frames, and answers that differed from
    /// an earlier answer to the same text.
    pub failed: u64,
    /// Latency of each source refresh this client made.
    pub update_ns: Vec<u64>,
    /// First answer hash seen per distinct text (workloads without
    /// refreshes only — there an answer never changes).
    pub answers: HashMap<u32, u64>,
}

/// Hash an answer without re-encoding it: every frame but the
/// timing-dependent `Summary`, through the data's own `Hash`.
pub fn answer_hash(frames: &[Frame]) -> u64 {
    let mut h = Fnv::default();
    for frame in frames {
        match frame {
            Frame::Summary { .. } => {}
            Frame::Schema { name, attrs, key } => (name, attrs, key).hash(&mut h),
            Frame::Rows { tuples } => tuples.hash(&mut h),
            other => other.encode().hash(&mut h),
        }
    }
    h.finish()
}

/// Run the closed loop for `window`: each client issues its script
/// from where warm-up stopped, wrapping around, and drops each answer
/// after hashing it. Returns the clients' logs and `S0`'s final
/// version.
pub fn timed_window(
    fixture: &mut Fixture,
    profile: &Profile,
    sizes: &Sizes,
    window: Duration,
) -> (Vec<ClientLog>, u64) {
    let barrier = Barrier::new(CLIENTS);
    let sessions = std::mem::take(&mut fixture.sessions);
    // Refresh contents are built before the window opens; the loop only
    // clones one.
    let variants: Vec<Vec<Relation>> = (0..DETAIL_VARIANTS)
        .filter(|_| profile.updates)
        .map(|v| fixture.source_relations(v))
        .collect();
    let shared = &*fixture;
    let outcomes: Vec<(NetClient, ClientLog, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(c, mut session)| {
                let (barrier, variants, fixture) = (&barrier, &variants, shared);
                scope.spawn(move || {
                    let script = &fixture.scripts.per_client[c];
                    let mut log = ClientLog::default();
                    let mut version = 0u64;
                    let mut pos = sizes.warmup;
                    barrier.wait();
                    let open = Instant::now();
                    loop {
                        let id = script[pos % script.len()];
                        pos += 1;
                        let sent = Instant::now();
                        let outcome = session.execute_frames(&fixture.scripts.texts[id as usize]);
                        let done = Instant::now();
                        log.lat_ns.push(nanos(done - sent));
                        log.done_ns.push(nanos(done - open));
                        log.issued += 1;
                        match outcome {
                            Ok(frames) => {
                                if matches!(frames.last(), Some(Frame::Error { .. })) {
                                    log.failed += 1;
                                } else if !profile.updates
                                    && fixture.scripts.classes[id as usize] != Class::Sys
                                {
                                    let hash = answer_hash(&frames);
                                    if *log.answers.entry(id).or_insert(hash) != hash {
                                        log.failed += 1;
                                    }
                                }
                            }
                            // The session is gone; nothing more can be
                            // asked of it.
                            Err(_) => {
                                log.failed += 1;
                                break;
                            }
                        }
                        if done - open >= window {
                            break;
                        }
                        if profile.updates && c == 0 && log.issued % sizes.update_every == 0 {
                            let next = (version + 1) % DETAIL_VARIANTS;
                            let relations = variants[next as usize].clone();
                            let start = Instant::now();
                            version = fixture
                                .service
                                .update_source_relations(UPDATED_SOURCE, relations);
                            log.update_ns.push(nanos(start.elapsed()));
                        }
                    }
                    (session, log, version)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut logs = Vec::with_capacity(CLIENTS);
    let mut version = 0;
    for (session, log, v) in outcomes {
        fixture.sessions.push(session);
        logs.push(log);
        version = version.max(v);
    }
    (logs, version)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The distinct texts a window issued, warm-up included.
pub fn issued_texts(fixture: &Fixture, sizes: &Sizes, logs: &[ClientLog]) -> BTreeSet<u32> {
    let mut ids = BTreeSet::new();
    for (script, log) in fixture.scripts.per_client.iter().zip(logs) {
        let upto = (sizes.warmup + log.issued).min(script.len());
        ids.extend(&script[..upto]);
    }
    ids
}

/// The correctness gate, outside the timed window: for every distinct
/// text in `ids`, the wire answer's `deterministic_bytes` must equal
/// those of `response_frames(execute(..))` on a fresh in-process
/// service with caches off and no indexes over the same data (at
/// `version`, quiesced). Catalog reads have no fixed content; for them
/// the schema frame must match and the answer must not be an error.
/// Where the window recorded an answer hash, the reference must hash
/// the same. Returns `(checked, failed)`.
pub fn gate(
    fixture: &Fixture,
    ids: &BTreeSet<u32>,
    logs: &[ClientLog],
    version: u64,
) -> Result<(u64, u64), String> {
    let reference = QueryService::for_scenario(
        &fixture.scenario_at(version),
        ServeOptions::default()
            .without_caches()
            .with_thread_budget(CLIENTS),
    );
    let addr = fixture.server.addr();
    let ids: Vec<u32> = ids.iter().copied().collect();
    let failed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (reference, ids) = (&reference, &ids);
                scope.spawn(move || -> Result<u64, String> {
                    let mut session =
                        NetClient::connect(addr).map_err(|e| format!("gate connect: {e}"))?;
                    let mut failed = 0;
                    for &id in ids.iter().skip(c).step_by(CLIENTS) {
                        let request = &fixture.scripts.texts[id as usize];
                        let expected = response_frames(&reference.execute(request.clone()));
                        let ok = match session.execute_frames(request) {
                            Err(_) => false,
                            Ok(wire) if fixture.scripts.classes[id as usize] == Class::Sys => {
                                wire.len() >= 2
                                    && matches!(expected.first(), Some(Frame::Schema { .. }))
                                    && wire[0] == expected[0]
                            }
                            Ok(wire) => {
                                let seen = logs.iter().filter_map(|l| l.answers.get(&id));
                                !matches!(expected.last(), Some(Frame::Error { .. }))
                                    && deterministic_bytes(&wire) == deterministic_bytes(&expected)
                                    && seen.into_iter().all(|&h| h == answer_hash(&expected))
                            }
                        };
                        failed += u64::from(!ok);
                    }
                    Ok(failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate thread panicked"))
            .sum::<Result<u64, String>>()
    })?;
    Ok((ids.len() as u64, failed))
}

/// The canary: the paper's introductory query through a loopback server
/// over the MIT scenario must name the three CEOs, each originating in
/// `{AD, CD}` with the alumni database among its mediators.
pub fn canary() -> Result<(), String> {
    let scenario = polygen_catalog::scenario::build();
    let service = Arc::new(QueryService::for_scenario(
        &scenario,
        ServeOptions::default(),
    ));
    let server = NetServer::spawn(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut session = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let response = session
        .execute(&Request::sql(
            "SELECT CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND DEGREE = \"MBA\"",
        ))
        .map_err(|e| format!("canary query: {e}"))?;
    drop(session);
    server.shutdown();
    let answer = response
        .rows()
        .ok_or_else(|| format!("canary answered {response:?}"))?;
    let sources = scenario.dictionary.registry();
    let (ad, cd) = (
        sources.lookup("AD").ok_or("no AD source")?,
        sources.lookup("CD").ok_or("no CD source")?,
    );
    let both = SourceSet::from_ids([ad, cd]);
    let mut ceos = BTreeSet::new();
    for tuple in answer.tuples() {
        let cell = &tuple[0];
        if cell.origin != both || !cell.intermediate.contains(ad) {
            return Err(format!("canary cell {cell:?} is not tagged {{AD, CD}}"));
        }
        ceos.insert(cell.datum.to_string());
    }
    let expected: BTreeSet<String> = ["Bob Swanson", "John Reed", "Stu Madnick"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if ceos != expected {
        return Err(format!("canary named {ceos:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scripts_and_another_seed_others() {
        let sizes = Sizes::smoke();
        for profile in [Profile::cold_mix(), Profile::point_churn()] {
            let a = Scripts::generate(41, &profile, &sizes);
            let b = Scripts::generate(41, &profile, &sizes);
            let c = Scripts::generate(42, &profile, &sizes);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.per_client, b.per_client);
            assert_eq!(a.texts, b.texts);
            assert_ne!(a.hash, c.hash);
            assert_eq!(a.per_client.len(), CLIENTS);
            assert!(a.per_client.iter().all(|s| s.len() == sizes.script_len));
            // Texts are distinct and every class is recovered from them.
            assert!(a.texts.windows(2).all(|w| w[0].text < w[1].text));
            let weights = profile.weights;
            for (class, weight) in Class::ALL.into_iter().zip([
                weights.select,
                weights.join,
                weights.paper,
                weights.point,
                weights.range,
                weights.sys,
            ]) {
                assert_eq!(a.classes.contains(&class), weight > 0, "{class:?}");
            }
        }
        // The two mixes share their scripts; only the service differs.
        assert_eq!(
            Scripts::generate(41, &Profile::cold_mix(), &sizes).hash,
            Scripts::generate(41, &Profile::hot_mix(), &sizes).hash
        );
    }

    #[test]
    fn refreshed_content_is_a_pure_function_of_the_version() {
        let sizes = Sizes::smoke();
        let fixture = Fixture::set_up(3, &Profile::point_churn(), &sizes).unwrap();
        let detail = |version: u64| {
            fixture
                .source_relations(version)
                .into_iter()
                .find(|r| r.name() == "DETAIL")
                .unwrap()
        };
        assert_eq!(
            detail(0),
            *fixture
                .scenario
                .database("S0")
                .unwrap()
                .relation("DETAIL")
                .unwrap()
        );
        assert_eq!(detail(1), detail(1 + DETAIL_VARIANTS));
        assert_ne!(detail(1), detail(2));
        assert_eq!(detail(1).len(), sizes.detail_rows);
        assert_eq!(
            fixture
                .scenario_at(2)
                .database("S0")
                .unwrap()
                .relation("DETAIL"),
            Some(&detail(2))
        );
    }

    #[test]
    fn the_canary_sings() {
        canary().unwrap();
    }
}
