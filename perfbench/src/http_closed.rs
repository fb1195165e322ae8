//! `http-closed`: two closed-loop clients sending `POST /v1/query`
//! through the `Gateway` to a `Server` with an answer cache.
//!
//! Each client draws its next request from a per-tenant hot set with
//! skewed (Zipf) popularity, plus a share of fresh requests, and sends
//! it only after the previous answer arrived. Client 0 also hot-swaps
//! the alarm model with `Server::reload` at a fixed interval; reloads
//! are timed on their own and are not requests.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use problp_bayes::{BatchQuery, VarId};
use problp_engine::{Gateway, GatewayConfig, ServeConfig, ServeRequest, ServeResponse};
use problp_num::Flags;
use problp_telemetry::JsonValue;

use crate::gen::{Gen, Zipf};
use crate::http::Client;
use crate::serving::{self, Hosted};
use crate::stats::Dist;
use crate::trace::{Child, Tracer};
use crate::{ms, us, with_setups, Args, Outcome, Phase};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Answer-cache entries of the server.
pub const CACHE_CAPACITY: usize = 4096;
/// Requests in each tenant's hot set.
pub const HOT_SET: usize = 256;
/// Zipf exponent of hot-set popularity.
const ZIPF_EXPONENT: f64 = 1.0;
/// Share of requests drawn fresh instead of from the hot set.
pub const FRESH_SHARE: f64 = 0.1;
/// Interval between client 0's reloads of the alarm model.
pub const RELOAD_EVERY: Duration = Duration::from_millis(1000);
/// The tenant client 0 reloads.
const RELOADED: &str = "alarm";
/// Socket timeout of the benchmark's client.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

struct Setup {
    hosted: Hosted,
    gateway: Gateway,
}

/// Trace id of a client's `seq`-th exchange, unique across clients.
fn request_id(client: usize, seq: u64) -> u64 {
    ((client as u64) << 48) | seq
}

fn token(model: &str) -> String {
    format!("token-{model}")
}

fn setup(tracer: Option<&Tracer>) -> Setup {
    let config = ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    };
    let hosted = serving::host(config, tracer);
    let tokens = hosted
        .tenants
        .iter()
        .map(|t| (token(t.name), t.name.to_string()))
        .collect();
    let g0 = Instant::now();
    let gateway = Gateway::start(
        Arc::clone(&hosted.server),
        GatewayConfig {
            tokens,
            ..GatewayConfig::default()
        },
    )
    .expect("the gateway binds a loopback port");
    let g1 = Instant::now();
    if let Some(tracer) = tracer {
        tracer.record(0, "setup", g0, g1, &[("gateway.start", g0, g1)]);
    }
    Setup { hosted, gateway }
}

/// A request and its HTTP body.
struct Prepared {
    req: ServeRequest,
    body: String,
}

/// The gateway's JSON body for `req` (the model rides in the token).
fn body(req: &ServeRequest) -> String {
    let evidence: Vec<String> = (0..req.evidence.len())
        .map(|v| match req.evidence.state(VarId::from_index(v)) {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        })
        .collect();
    let evidence = evidence.join(", ");
    match req.query {
        BatchQuery::Marginal => format!(r#"{{"query": "marginal", "evidence": [{evidence}]}}"#),
        BatchQuery::Mpe => format!(r#"{{"query": "mpe", "evidence": [{evidence}]}}"#),
        BatchQuery::Conditional { query_var } => format!(
            r#"{{"query": "conditional", "query_var": {}, "evidence": [{evidence}]}}"#,
            query_var.index()
        ),
    }
}

fn prepare(hosted: &Hosted, gen: &mut Gen, tenant: usize) -> Prepared {
    let t = &hosted.tenants[tenant];
    let (query, evidence) = gen.query(&t.net);
    let req = serving::request(t.name, query, evidence);
    Prepared {
        body: body(&req),
        req,
    }
}

/// Which request an exchange sent.
enum Sent {
    Hot(usize, usize),
    Fresh(Box<Prepared>),
}

/// One finished exchange, kept for the check after the run.
struct Exchange {
    sent: Sent,
    start: Instant,
    status: u16,
    body: Vec<u8>,
    latency_us: f64,
    connect_us: Option<f64>,
    ttfb_us: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    exchanges: Vec<Exchange>,
    errors: u64,
    connections: u64,
    reload_ms: Vec<f64>,
    reload_failures: u64,
}

fn client_loop(
    s: &Setup,
    hot: &[Vec<Prepared>],
    client: usize,
    seed: u64,
    stream: u64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let hosted = &s.hosted;
    let mut gen = Gen::new(seed, stream * 16 + client as u64);
    let zipf = Zipf::new(HOT_SET, ZIPF_EXPONENT);
    let auth: Vec<String> = hosted
        .tenants
        .iter()
        .map(|t| format!("Bearer {}", token(t.name)))
        .collect();
    let mut http = Client::new(s.gateway.local_addr(), IO_TIMEOUT);
    let mut log = ClientLog::default();
    let mut next_reload = Instant::now() + RELOAD_EVERY;
    let reload_ac = &hosted
        .tenants
        .iter()
        .find(|t| t.name == RELOADED)
        .expect("the reloaded model is hosted")
        .ac;
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if client == 0 && now >= next_reload {
            let r0 = Instant::now();
            let ok = hosted.server.reload(RELOADED, reload_ac).is_ok();
            let r1 = Instant::now();
            log.reload_ms.push(ms(r0, r1));
            log.reload_failures += u64::from(!ok);
            if let Some(tracer) = tracer {
                tracer.record(request_id(client, seq), "pool.reload", r0, r1, &[]);
            }
            next_reload += RELOAD_EVERY;
            continue;
        }
        let tenant = gen.below(hosted.tenants.len());
        let sent = if gen.unit() < FRESH_SHARE {
            Sent::Fresh(Box::new(prepare(hosted, &mut gen, tenant)))
        } else {
            Sent::Hot(tenant, zipf.draw(&mut gen))
        };
        let payload = match &sent {
            Sent::Hot(t, i) => &hot[*t][*i].body,
            Sent::Fresh(p) => &p.body,
        };
        let headers = [("Authorization", auth[tenant].as_str())];
        seq += 1;
        match http.post("/v1/query", &headers, payload.as_bytes()) {
            Ok((response, t)) => {
                if let Some(tracer) = tracer {
                    let mut children: Vec<Child> = Vec::with_capacity(4);
                    let write_from = match t.connected {
                        Some(c) => {
                            children.push(("gateway.connect", t.start, c));
                            c
                        }
                        None => t.start,
                    };
                    children.push(("gateway.write", write_from, t.written));
                    children.push(("gateway.ttfb", t.written, t.first_byte));
                    children.push(("gateway.read", t.first_byte, t.done));
                    tracer.record(
                        request_id(client, seq),
                        "request",
                        t.start,
                        t.done,
                        &children,
                    );
                }
                log.exchanges.push(Exchange {
                    sent,
                    start: t.start,
                    status: response.status,
                    body: response.body,
                    latency_us: us(t.start, t.done),
                    connect_us: t.connected.map(|c| us(t.start, c)),
                    ttfb_us: us(t.written, t.first_byte),
                });
            }
            Err(e) => {
                if log.errors < 3 {
                    eprintln!("http-closed: client {client} request failed: {e}");
                }
                log.errors += 1;
            }
        }
    }
    log.connections = http.connections;
    log
}

/// Reads a 200 body back into the serving vocabulary (exact f64 JSON
/// parse; flags are batch-scope and ignored by the comparison).
fn parse_answer(query: BatchQuery, body: &[u8]) -> Option<ServeResponse<f64>> {
    let doc = JsonValue::parse(std::str::from_utf8(body).ok()?).ok()?;
    let f64_field = |name: &str| doc.get(name).and_then(JsonValue::as_f64);
    let array = |name: &str| -> Option<Vec<f64>> {
        doc.get(name)?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect()
    };
    let flags = Flags::default();
    Some(match query {
        BatchQuery::Marginal => ServeResponse::Marginal {
            value: f64_field("value")?,
            flags,
        },
        BatchQuery::Mpe => ServeResponse::Mpe {
            assignment: array("assignment")?.iter().map(|&s| s as usize).collect(),
            value: f64_field("value")?,
            flags,
        },
        BatchQuery::Conditional { .. } => ServeResponse::Conditional {
            posteriors: array("posteriors")?,
            prediction: f64_field("prediction")? as usize,
            flags,
        },
    })
}

fn measure(
    s: &Setup,
    hot: &[Vec<Prepared>],
    args: &Args,
    stream: u64,
    tracer: Option<&Tracer>,
) -> Phase {
    let server = &s.hosted.server;
    let before = serving::counters(server);
    let statuses_before = serving::gateway_statuses(&server.metrics());
    let t0 = Instant::now();
    let deadline = t0 + crate::phase_len(args);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || client_loop(s, hot, c, args.seed, stream, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let busy_s = t0.elapsed().as_secs_f64();
    let after = serving::counters(server);
    let statuses_after = serving::gateway_statuses(&server.metrics());

    // Checked outside the timed section: every 200 body against the
    // uncached reference, memoized per hot-set entry.
    let mut hot_refs: HashMap<(usize, usize), problp_engine::LaneResult<f64>> = HashMap::new();
    let mut ledger: BTreeMap<u16, u64> = BTreeMap::new();
    let mut failed = 0u64;
    let mut answered = 0u64;
    for x in logs.iter().flat_map(|l| &l.exchanges) {
        *ledger.entry(x.status).or_default() += 1;
        let req = match &x.sent {
            Sent::Hot(t, i) => &hot[*t][*i].req,
            Sent::Fresh(p) => &p.req,
        };
        let got = match parse_answer(req.query, &x.body) {
            Some(answer) if x.status == 200 => Ok(answer),
            _ => {
                failed += 1;
                continue;
            }
        };
        let reference = match &x.sent {
            Sent::Hot(t, i) => hot_refs
                .entry((*t, *i))
                .or_insert_with(|| server.pool().serve_one(req))
                .clone(),
            Sent::Fresh(_) => server.pool().serve_one(req),
        };
        if reference.is_ok() && problp_engine::lane_answer_eq(&got, &reference) {
            answered += 1;
        } else {
            failed += 1;
        }
    }
    // The gateway's own status counters must agree with the client's
    // ledger exactly.
    let gateway: BTreeMap<u16, u64> = statuses_after
        .iter()
        .map(|(code, n)| (*code, n - statuses_before.get(code).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect();
    let consistent = gateway == ledger && logs.iter().all(|l| l.reload_failures == 0);
    if !consistent {
        eprintln!(
            "http-closed: client ledger {ledger:?} vs gateway counters {gateway:?}, reload failures {}",
            logs.iter().map(|l| l.reload_failures).sum::<u64>()
        );
    }
    let errors: u64 = logs.iter().map(|l| l.errors).sum();
    let mut exchanges: Vec<&Exchange> = logs.iter().flat_map(|l| &l.exchanges).collect();
    exchanges.sort_by_key(|x| x.start);
    let requests = exchanges.len() as u64 + errors;
    let connections: u64 = logs.iter().map(|l| l.connections).sum();
    let connect = Dist::new(exchanges.iter().filter_map(|x| x.connect_us).collect());
    let ttfb = Dist::new(exchanges.iter().map(|x| x.ttfb_us).collect());
    let reloads = Dist::new(logs.iter().flat_map(|l| l.reload_ms.clone()).collect());
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let layers: BTreeMap<String, f64> = [
        ("cache.hit_ratio", hits as f64 / lookups.max(1) as f64),
        (
            "cache.evictions",
            (after.cache_evictions - before.cache_evictions) as f64,
        ),
        ("pool.reload_ms.p50", reloads.p(50.0)),
        ("gateway.connect_us.p50", connect.p(50.0)),
        ("gateway.ttfb_us.p50", ttfb.p(50.0)),
        ("gateway.ttfb_us.p99", ttfb.p(99.0)),
        (
            "gateway.requests_per_conn",
            requests as f64 / connections.max(1) as f64,
        ),
        (
            "gateway.status.200",
            ledger.get(&200).copied().unwrap_or(0) as f64,
        ),
        (
            "gateway.status.other",
            ledger
                .iter()
                .filter(|(c, _)| **c != 200)
                .map(|(_, n)| *n)
                .sum::<u64>() as f64,
        ),
        (
            "engine.evaluate_us.mean",
            serving::evaluate_mean_us(&before, &after),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    Phase {
        latency_us: exchanges.iter().map(|x| x.latency_us).collect(),
        work: answered as f64,
        busy_s,
        attempted: requests,
        failed: failed + errors,
        consistent,
        layers,
    }
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Outcome {
    let (setup_s, (untraced, traced, setup_layers)) = with_setups(
        || setup(tracer),
        |s| {
            // The hot sets are inputs, generated after set-up from the seed.
            let hot: Vec<Vec<Prepared>> = (0..s.hosted.tenants.len())
                .map(|t| {
                    let mut gen = Gen::new(args.seed, 1000 + t as u64);
                    (0..HOT_SET)
                        .map(|_| prepare(&s.hosted, &mut gen, t))
                        .collect()
                })
                .collect();
            let untraced = measure(s, &hot, args, 0, None);
            let traced = tracer.map(|t| measure(s, &hot, args, 1, Some(t)));
            (untraced, traced, s.hosted.setup_layers())
        },
    );
    Outcome {
        setup_s,
        throughput_name: "throughput_rps",
        untraced,
        traced,
        setup_layers,
    }
}
