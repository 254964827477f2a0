//! Seeded malformed-input sweep over the pure parsers of outside bytes.
//!
//! Every parser below reads bytes that arrive from outside the process: an
//! HTTP request, a `/run` request body, a scraped Prometheus exposition,
//! structured logs, event traces and flight-recorder dumps, store records
//! and index files, persisted results and metrics history. Each test builds valid encodings with the real
//! producers and checks they round-trip, then feeds the parser seeded
//! mutations of them: truncation, bit flips, inserted JSON punctuation and
//! inserted wild words. The properties:
//!
//! * no input makes a parser panic;
//! * damage yields a typed error or `None` where the format can tell
//!   (truncated JSON, a failed checksum);
//! * whatever a parser does accept is self-consistent: it re-encodes to
//!   the bytes that were read, or round-trips through its encoder.
//!
//! Case counts scale with `tdo_rand::cases` (8× under `exhaustive`).

use std::fmt::Debug;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use tdo_metrics::expo::parse_text;
use tdo_metrics::series::{SeriesRow, SeriesSnapshot};
use tdo_metrics::Registry;
use tdo_obs::logline::{format_line, Level};
use tdo_obs::span::{parse_flight, EvKind, FlightKind, FlightRecord, FlightRecorder, ID_MASK};
use tdo_obs::{validate_chrome_trace, validate_flight, validate_jsonl, validate_log};
use tdo_rand::Rng;
use tdo_server::http::{read_request, reject_reason, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use tdo_server::json::{parse_run_body, RunBody, Value};
use tdo_server::BAD_REQUEST_REASONS;
use tdo_sim::report::json_escape;
use tdo_sim::{decode_result, encode_result, run_traced, PrefetchSetup, SimConfig, SimResult};
use tdo_store::record::{decode_index, decode_record, encode_index, encode_record, Decoded};
use tdo_store::record::{IndexEntry, Record};
use tdo_workloads::{build, Scale};

/// Bytes that most often change how a JSON or text parser frames its input.
const PUNCT: &[u8] = b"{}[],:\"\\ \n=#";

/// Tokens a hostile or corrupted producer might splice in.
const WILD_WORDS: &[&str] = &[
    "null",
    "-1",
    "1e9",
    "0.5",
    "18446744073709551616",
    "true",
    "\"cells\":[",
    "NaN",
    "+Inf",
    "# TYPE x counter",
    "\\u0000",
    "\u{0}",
    "\u{7f}",
    "\u{fffd}",
    "level=info",
    "{\"ph\":",
];

/// Integers at the edges of every length and count field.
const WILD_INTS: &[u64] = &[0, 1, 2, 7, 0xff, 4096, 1 << 17, u32::MAX as u64, 1 << 63, u64::MAX];

/// Runs `f`, turning a panic into a test failure that names the input.
fn no_panic<T>(parser: &str, case: u32, input: &dyn Debug, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => {
            let shown = format!("{input:?}");
            let cut: String = shown.chars().take(400).collect();
            panic!("{parser} panicked on case {case}; input starts {cut}")
        }
    }
}

/// How a byte mutation damaged its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Damage {
    /// Cut to a strict prefix.
    Truncated,
    /// Bits flipped, punctuation or a wild word inserted.
    Other,
}

/// One seeded mutation of `valid`.
fn mutate_bytes(rng: &mut Rng, valid: &[u8]) -> (Vec<u8>, Damage) {
    let mut b = valid.to_vec();
    match rng.gen_index(4) {
        0 => {
            b.truncate(rng.gen_index(b.len().max(1)));
            return (b, Damage::Truncated);
        }
        1 => {
            for _ in 0..=rng.gen_index(4) {
                if !b.is_empty() {
                    let i = rng.gen_index(b.len());
                    b[i] ^= 1 << rng.gen_index(8);
                }
            }
        }
        2 => {
            for _ in 0..=rng.gen_index(3) {
                let at = rng.gen_index(b.len() + 1);
                b.insert(at, *rng.choose(PUNCT));
            }
        }
        _ => {
            let at = rng.gen_index(b.len() + 1);
            let word: Vec<u8> = if rng.gen_bool(0.5) {
                rng.choose(WILD_WORDS).as_bytes().to_vec()
            } else {
                rng.choose(WILD_INTS).to_le_bytes().to_vec()
            };
            b.splice(at..at, word);
        }
    }
    (b, Damage::Other)
}

/// One seeded mutation of a text encoding, re-read as (lossy) UTF-8 the
/// way a server reads a body it did not write.
fn mutate_text(rng: &mut Rng, valid: &str) -> (String, Damage) {
    let (b, damage) = mutate_bytes(rng, valid.as_bytes());
    (String::from_utf8_lossy(&b).into_owned(), damage)
}

/// One seeded mutation of an integer word stream.
fn mutate_words(rng: &mut Rng, valid: &[u64]) -> Vec<u64> {
    let mut w = valid.to_vec();
    match rng.gen_index(4) {
        0 => w.truncate(rng.gen_index(w.len().max(1))),
        1 => {
            if !w.is_empty() {
                let i = rng.gen_index(w.len());
                w[i] ^= 1 << rng.gen_index(64);
            }
        }
        2 => {
            if !w.is_empty() {
                let i = rng.gen_index(w.len());
                w[i] = *rng.choose(WILD_INTS);
            }
        }
        _ => {
            let at = rng.gen_index(w.len() + 1);
            w.insert(at, *rng.choose(WILD_INTS));
        }
    }
    w
}

fn random_string(rng: &mut Rng, max: usize) -> String {
    const ALPHABET: &[char] =
        &['a', 'm', 'z', '0', '9', '_', ' ', '/', '"', '\\', '\n', '\r', '\t', 'é', '✓'];
    (0..rng.gen_index(max + 1)).map(|_| *rng.choose(ALPHABET)).collect()
}

fn random_object(rng: &mut Rng) -> Vec<(String, Value)> {
    (0..rng.gen_index(5))
        .map(|_| {
            let value = match rng.gen_index(3) {
                0 => Value::Str(random_string(rng, 12)),
                1 => Value::Int(if rng.gen_bool(0.2) { u64::MAX } else { rng.next_u64() >> 20 }),
                _ => Value::Bool(rng.gen_bool(0.5)),
            };
            (random_string(rng, 8), value)
        })
        .collect()
}

fn render_object(pairs: &[(String, Value)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Value::Str(s) => format!("\"{}\"", json_escape(s)),
                Value::Int(n) => n.to_string(),
                Value::Bool(b) => b.to_string(),
            };
            format!("\"{}\":{v}", json_escape(k))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn render_body(body: &RunBody) -> String {
    match body {
        RunBody::Single(pairs) => render_object(pairs),
        RunBody::Batch(cells) => {
            let cells: Vec<String> = cells.iter().map(|c| render_object(c)).collect();
            format!("{{\"cells\":[{}]}}", cells.join(","))
        }
    }
}

#[test]
fn run_body_parser_survives_damage_and_round_trips() {
    let mut rng = Rng::new(0x5eed_0001);
    for case in 0..tdo_rand::cases(400) {
        let body = if rng.gen_bool(0.5) {
            RunBody::Single(random_object(&mut rng))
        } else {
            RunBody::Batch((0..rng.gen_index(4)).map(|_| random_object(&mut rng)).collect())
        };
        let text = render_body(&body);
        assert_eq!(parse_run_body(&text), Ok(body), "valid body must round-trip: {text}");

        let (bad, damage) = mutate_text(&mut rng, &text);
        let parsed = no_panic("parse_run_body", case, &bad, || parse_run_body(&bad));
        match parsed {
            // Every rendering ends in `}`; a strict prefix never parses.
            Ok(_) if damage == Damage::Truncated => {
                panic!("case {case}: truncated body {bad:?} parsed")
            }
            Ok(b) => assert_eq!(parse_run_body(&render_body(&b)), Ok(b), "case {case}"),
            Err(e) => assert!(!e.is_empty(), "case {case}: errors carry a message"),
        }
    }
}

/// Sends `bytes` as a whole connection over a loopback pair, the writer
/// half shut down after it, and reads it back with the daemon's reader.
/// Both ends run on the calling thread; every input is at most a few tens
/// of KB, well inside the loopback socket buffers.
fn read_over_loopback(listener: &TcpListener, bytes: &[u8]) -> io::Result<Request> {
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_write_timeout(Some(Duration::from_secs(10)))?;
    server.set_read_timeout(Some(Duration::from_secs(10)))?;
    client.write_all(bytes)?;
    client.shutdown(Shutdown::Write)?;
    read_request(&mut server)
}

fn render_request(method: &str, path: &str, headers: &[String], body: &str) -> String {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for h in headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    format!("{head}\r\n{body}")
}

#[test]
fn http_request_reader_survives_damage_and_round_trips() {
    const METHODS: &[&str] = &["GET", "POST", "post", "PUT", "Delete"];
    const PATHS: &[&str] = &["/", "/run", "/metrics?format=prom", "/health", "/debug/flight"];
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let mut rng = Rng::new(0x5eed_0008);
    let mut reasons_seen = std::collections::BTreeSet::new();
    for case in 0..tdo_rand::cases(300) {
        let method = *rng.choose(METHODS);
        let path = *rng.choose(PATHS);
        let body = if rng.gen_bool(0.5) {
            render_body(&RunBody::Single(random_object(&mut rng)))
        } else {
            random_string(&mut rng, 64)
        };
        let mut headers = vec!["Host: 127.0.0.1".to_string()];
        if rng.gen_bool(0.3) {
            headers
                .push(format!("X-Note: {}", random_string(&mut rng, 12).replace(['\r', '\n'], "")));
        }
        headers.push(format!("content-length: {}", body.len()));
        let text = render_request(method, path, &headers, &body);
        let req = read_over_loopback(&listener, text.as_bytes()).expect("valid request reads");
        assert_eq!(
            (req.method.as_str(), req.path.as_str(), req.body.as_str()),
            (method.to_ascii_uppercase().as_str(), path, body.as_str()),
            "case {case}"
        );

        // Seeded damage, plus heads and bodies over the limits.
        let (bad, damage) = match rng.gen_index(6) {
            0 => {
                let pad = "a".repeat(MAX_HEAD_BYTES + 1024 + rng.gen_index(4096));
                let mut big = headers.clone();
                big.insert(1, format!("X-Pad: {pad}"));
                (render_request(method, path, &big, &body).into_bytes(), None)
            }
            1 => {
                let len = MAX_BODY_BYTES + 1 + rng.gen_index(1 << 20);
                let mut big = headers.clone();
                *big.last_mut().unwrap() = format!("Content-Length: {len}");
                (render_request(method, path, &big, &body).into_bytes(), None)
            }
            _ => {
                let (b, d) = mutate_bytes(&mut rng, text.as_bytes());
                (b, Some(d))
            }
        };
        let read = no_panic("read_request", case, &String::from_utf8_lossy(&bad), || {
            read_over_loopback(&listener, &bad)
        });
        match read {
            Ok(r) => {
                assert!(damage != Some(Damage::Truncated), "case {case}: a cut request read");
                // What the reader accepts reads back the same when re-sent.
                let len = format!("Content-Length: {}", r.body.len());
                let again = render_request(&r.method, &r.path, &[len], &r.body);
                let back =
                    read_over_loopback(&listener, again.as_bytes()).expect("re-sent request");
                assert_eq!((back.method, back.path, back.body), (r.method, r.path, r.body));
            }
            Err(e) => {
                let reason = reject_reason(&e);
                assert!(BAD_REQUEST_REASONS.contains(&reason), "case {case}: reason {reason}");
                assert_ne!(reason, "read_failed", "case {case}: transport error {e}");
                if damage == Some(Damage::Truncated) {
                    assert_eq!(reason, "closed_early", "case {case}");
                }
                reasons_seen.insert(reason);
            }
        }
    }
    for reason in ["head_too_large", "body_too_large", "closed_early"] {
        assert!(reasons_seen.contains(reason), "no case reached {reason}: {reasons_seen:?}");
    }
}

/// A dump of random records, every field in the 63 bits the span API
/// writes (it masks ids and arguments with `ID_MASK`).
fn random_flight_dump(rng: &mut Rng) -> (String, usize) {
    let rec = FlightRecorder::with_capacity(64);
    let n = 1 + rng.gen_index(24);
    let word = |rng: &mut Rng| (rng.next_u64() >> rng.gen_index(64)) & ID_MASK;
    for _ in 0..n {
        rec.record_raw(&FlightRecord {
            ts: word(rng),
            trace: rng.gen_range(0..4),
            span: word(rng),
            parent: word(rng),
            kind: *rng.choose(&[FlightKind::Request, FlightKind::RunCell, FlightKind::Fault]),
            ev: *rng.choose(&[EvKind::Begin, EvKind::End, EvKind::Point]),
            arg: if rng.gen_bool(0.2) { ID_MASK } else { word(rng) },
        });
    }
    (rec.dump(), n)
}

#[test]
fn flight_dump_validator_survives_damage() {
    let mut rng = Rng::new(0x5eed_0009);
    for case in 0..tdo_rand::cases(400) {
        let (dump, n) = random_flight_dump(&mut rng);
        assert_eq!(validate_flight(&dump), Ok(n), "case {case}: {dump}");

        let (bad, damage) = mutate_text(&mut rng, &dump);
        let checked = no_panic("validate_flight", case, &bad, || validate_flight(&bad));
        match checked {
            Ok(k) => {
                // An accepted dump re-serializes to a dump that validates
                // with the same records.
                let recs = parse_flight(&bad).expect("validated dumps parse");
                assert_eq!(recs.len(), k, "case {case}");
                let again: String = recs.iter().map(|r| r.to_json() + "\n").collect();
                assert_eq!(validate_flight(&again), Ok(k), "case {case}");
                assert_eq!(parse_flight(&again), Ok(recs), "case {case}");
            }
            Err(e) => assert!(!e.is_empty(), "case {case}: errors carry a message"),
        }
        // Every line is one flat object; a cut inside a line leaves it open.
        if damage == Damage::Truncated && !bad.is_empty() && !bad.ends_with(['}', '\n']) {
            assert!(validate_flight(&bad).is_err(), "case {case}: a cut dump validated: {bad}");
        }
    }
}

fn random_registry(rng: &mut Rng) -> (String, usize) {
    let reg = Registry::new();
    let families = 1 + rng.gen_index(5);
    for f in 0..families {
        let name = format!("tdo_fuzz_{f}_total");
        for l in 0..=rng.gen_index(2) {
            let value = random_string(rng, 6);
            let labels = [("arm", value.as_str()), ("shard", ["0", "1", "2"][l])];
            match f % 3 {
                0 => reg.counter(&name, &labels, "A counter.").add(rng.next_u64() >> 8),
                1 => reg.gauge(&name, &labels, "A gauge.").set(rng.next_u64() >> 8),
                _ => {
                    let h = reg.histogram(&name, &labels, "A histogram.");
                    for _ in 0..rng.gen_index(6) {
                        h.observe_with_exemplar(rng.next_u64() >> 40, rng.next_u64());
                    }
                }
            }
        }
    }
    (reg.render_prom(), families)
}

#[test]
fn prometheus_parser_survives_damage() {
    let mut rng = Rng::new(0x5eed_0002);
    for case in 0..tdo_rand::cases(300) {
        let (text, families) = random_registry(&mut rng);
        let stats = parse_text(&text).unwrap_or_else(|e| panic!("valid exposition: {e}\n{text}"));
        assert_eq!(stats.families, families, "case {case}");

        let (bad, _) = mutate_text(&mut rng, &text);
        let parsed = no_panic("expo::parse_text", case, &bad, || parse_text(&bad));
        if let Err(e) = parsed {
            assert!(!e.is_empty(), "case {case}: errors carry a message");
        }
    }
}

#[test]
fn log_validator_survives_damage() {
    let mut rng = Rng::new(0x5eed_0003);
    let levels = [Level::Debug, Level::Info, Level::Warn, Level::Error];
    for case in 0..tdo_rand::cases(400) {
        let lines = 1 + rng.gen_index(6);
        let mut log = String::new();
        for _ in 0..lines {
            let msg = random_string(&mut rng, 16);
            let value = random_string(&mut rng, 8);
            let fields = [("cell", value.as_str()), ("shard", "3")];
            let n = rng.gen_index(3);
            log.push_str(&format_line(*rng.choose(&levels), "fuzz", &msg, &fields[..n]));
            log.push('\n');
        }
        assert_eq!(validate_log(&log), Ok(lines), "case {case}: {log}");

        let (bad, _) = mutate_text(&mut rng, &log);
        no_panic("validate_log", case, &bad, || validate_log(&bad)).ok();
    }
}

fn small_cfg(setup: PrefetchSetup) -> SimConfig {
    let mut cfg = SimConfig::test(setup);
    cfg.warmup_insts = 5_000;
    cfg.measure_insts = 20_000;
    cfg
}

#[test]
fn event_trace_validators_survive_damage() {
    let w = build("mcf", Scale::Test).expect("mcf builds");
    let (_, rec) = run_traced(&w, &small_cfg(PrefetchSetup::SwSelfRepair));
    let jsonl = rec.to_jsonl();
    let chrome = rec.to_chrome_trace();
    assert_eq!(validate_jsonl(&jsonl), Ok(rec.len()));
    assert!(validate_chrome_trace(&chrome).expect("valid Chrome trace") >= rec.len());

    let mut rng = Rng::new(0x5eed_0004);
    for case in 0..tdo_rand::cases(300) {
        let (bad, _) = mutate_text(&mut rng, &jsonl);
        no_panic("validate_jsonl", case, &bad, || validate_jsonl(&bad)).ok();

        let (bad, damage) = mutate_text(&mut rng, &chrome);
        let checked = no_panic("validate_chrome_trace", case, &bad, || validate_chrome_trace(&bad));
        // The trace closes its top-level object last; a prefix that cuts
        // into it (not just the trailing newline) leaves a delimiter open.
        if damage == Damage::Truncated && bad.len() < chrome.trim_end().len() {
            assert!(checked.is_err(), "case {case}: a truncated trace validated");
        }
    }
}

#[test]
fn store_record_and_index_decoders_survive_damage() {
    let mut rng = Rng::new(0x5eed_0005);
    for case in 0..tdo_rand::cases(500) {
        let rec = Record {
            version: rng.next_u32(),
            key: rng.next_u64(),
            payload: (0..rng.gen_index(8)).map(|_| rng.next_u64()).collect(),
        };
        let bytes = encode_record(&rec);
        assert_eq!(decode_record(&bytes), Decoded::Good { rec, len: bytes.len() });

        let (bad, damage) = mutate_bytes(&mut rng, &bytes);
        match no_panic("decode_record", case, &bad, || decode_record(&bad)) {
            // Only bytes the encoder would write are accepted.
            Decoded::Good { rec, len } => {
                assert_eq!(encode_record(&rec), bad[..len], "case {case}")
            }
            Decoded::BadChecksum { len } => assert!(len <= bad.len(), "case {case}"),
            Decoded::Garbage => {}
        }
        if damage == Damage::Truncated {
            assert_eq!(decode_record(&bad), Decoded::Garbage, "case {case}");
        }

        let entries: Vec<IndexEntry> = (0..rng.gen_index(5))
            .map(|_| IndexEntry {
                key: rng.next_u64(),
                offset: rng.next_u64(),
                version: rng.next_u32(),
                words: rng.next_u32(),
            })
            .collect();
        let log_len = rng.next_u64();
        let index = encode_index(&entries, log_len);
        assert_eq!(decode_index(&index), Some((entries, log_len)), "case {case}");

        let (bad, _) = mutate_bytes(&mut rng, &index);
        if let Some((e, l)) = no_panic("decode_index", case, &bad, || decode_index(&bad)) {
            assert_eq!(encode_index(&e, l), bad, "case {case}: accepted a non-canonical index");
        }
    }
}

fn debug_eq(a: &SimResult, b: &SimResult) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn persisted_result_decoder_survives_damage() {
    let results: Vec<SimResult> = [
        ("mcf", PrefetchSetup::SwSelfRepair),
        ("art", PrefetchSetup::Hw4x4),
        ("phaseshift", PrefetchSetup::Policy),
    ]
    .into_iter()
    .map(|(name, setup)| {
        let w = build(name, Scale::Test).expect("workload builds");
        tdo_sim::run(&w, &small_cfg(setup))
    })
    .collect();
    for r in &results {
        let back = decode_result(&encode_result(r)).expect("valid encoding decodes");
        assert!(debug_eq(r, &back), "{} must round-trip", r.name);
    }

    let mut rng = Rng::new(0x5eed_0006);
    for case in 0..tdo_rand::cases(600) {
        let words = encode_result(rng.choose(&results));
        let bad = mutate_words(&mut rng, &words);
        if let Some(r) = no_panic("decode_result", case, &bad, || decode_result(&bad)) {
            let again = decode_result(&encode_result(&r)).expect("an accepted result re-encodes");
            assert!(debug_eq(&r, &again), "case {case}: accepted result does not round-trip");
        }
    }
}

#[test]
fn series_snapshot_decoder_survives_damage() {
    let mut rng = Rng::new(0x5eed_0007);
    for case in 0..tdo_rand::cases(600) {
        let width = rng.gen_index(5);
        let snap = SeriesSnapshot {
            rows: (0..rng.gen_index(5))
                .map(|t| SeriesRow {
                    tick: t as u64,
                    values: (0..width).map(|_| rng.next_u64()).collect(),
                })
                .collect(),
        };
        let words = snap.encode();
        assert_eq!(SeriesSnapshot::decode(&words), Some(snap), "case {case}");

        let bad = mutate_words(&mut rng, &words);
        if let Some(s) =
            no_panic("SeriesSnapshot::decode", case, &bad, || SeriesSnapshot::decode(&bad))
        {
            assert_eq!(SeriesSnapshot::decode(&s.encode()), Some(s), "case {case}");
        }
    }
}
