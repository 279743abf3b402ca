//! `serde_json::from_str` is total over arbitrary text.
//!
//! JSON crosses a trust boundary: `ServeClient::query_status` and
//! `query_machine` parse whatever a server sends, and a monitor log, a
//! chaos plan or a BENCH trajectory is read back from disk. For each
//! document type read that way — [`ServeStatus`], [`MachineSnapshot`],
//! [`ChaosPlan`], [`MonitorLog`] and `Vec<BenchEntry>` — `from_str` must
//! return `Ok` or `Err` and never panic or overflow the stack:
//!
//! 1. on arbitrary strings, drawn from JSON's own tokens and from raw
//!    characters;
//! 2. on seeded mutations of every document in
//!    `fixtures/json_fixtures.txt` (deletions, insertions, duplicated
//!    spans, truncations);
//! 3. on input nested 1 000 000 deep, parsed on a thread with a 256 KiB
//!    stack: nesting deeper than 128 is an error, so the parser's
//!    recursion is bounded whatever the input.

use aging_bench::trajectory::BenchEntry;
use aging_chaos::ChaosPlan;
use aging_memsim::MonitorLog;
use aging_serve::ServeStatus;
use aging_stream::MachineSnapshot;
use proptest::prelude::*;

const FIXTURES: &str = include_str!("fixtures/json_fixtures.txt");

/// Tokens arbitrary text is built from: JSON's structure, literals,
/// numbers, escapes, the five documents' keys and variant names, and
/// bytes JSON forbids.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n",
    "null",
    "true",
    "false",
    "nul",
    "0",
    "-",
    "1",
    "5.0",
    "1e3",
    "-1",
    "300",
    "1.5e",
    "18446744073709551616",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "\\u00e9",
    "é",
    "😀",
    "\u{1}",
    "\"wire\"",
    "\"fleet\"",
    "\"counts\"",
    "\"streams\"",
    "\"injectors\"",
    "\"samples\"",
    "\"crashes\"",
    "\"metrics\"",
    "\"Step\"",
    "\"NonFiniteBurst\"",
    "\"AvailableBytes\"",
    "\"Thrashing\"",
    "\"window\"",
    "\"seed\"",
];

/// Every document the fixture file holds: each section's compact line
/// and its pretty block.
fn corpus() -> Vec<String> {
    let mut docs = Vec::new();
    for section in FIXTURES.split("\n@ ").skip(1) {
        let mut lines = section.lines().skip(1);
        docs.push(lines.next().expect("compact line").to_string());
        docs.push(lines.map(|line| format!("{line}\n")).collect());
    }
    docs
}

/// Parses `text` as every guarded document type; only a panic fails.
fn parse_all(text: &str) {
    let _ = serde_json::from_str::<ServeStatus>(text);
    let _ = serde_json::from_str::<MachineSnapshot>(text);
    let _ = serde_json::from_str::<Vec<MachineSnapshot>>(text);
    let _ = serde_json::from_str::<ChaosPlan>(text);
    let _ = serde_json::from_str::<MonitorLog>(text);
    let _ = serde_json::from_str::<Vec<BenchEntry>>(text);
}

#[test]
fn corpus_holds_both_forms_of_every_section() {
    let docs = corpus();
    let sections = FIXTURES.lines().filter(|l| l.starts_with("@ ")).count();
    assert_eq!(docs.len(), 2 * sections);
    for pair in docs.chunks(2) {
        assert!(!pair[0].contains('\n'), "compact form: {}", pair[0]);
        assert!(pair[1].ends_with('\n'), "pretty form: {}", pair[1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_token_strings_never_panic(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..120),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        parse_all(&text);
    }

    #[test]
    fn arbitrary_characters_never_panic(
        codes in prop::collection::vec(0u32..0x3000, 0..200),
    ) {
        let text: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        parse_all(&text);
    }

    #[test]
    fn mutated_fixtures_never_panic(
        doc in 0usize..60,
        ops in prop::collection::vec(0usize..5, 1..6),
        spots in prop::collection::vec(0usize..1_000_000, 6),
        lens in prop::collection::vec(1usize..24, 6),
        picks in prop::collection::vec(0usize..TOKENS.len(), 6),
    ) {
        let docs = corpus();
        let mut chars: Vec<char> = docs[doc % docs.len()].chars().collect();
        for (k, op) in ops.iter().enumerate() {
            let at = spots[k] % (chars.len() + 1);
            let end = (at + lens[k]).min(chars.len());
            match op {
                0 => {
                    chars.drain(at..end);
                }
                1 => {
                    let token: Vec<char> = TOKENS[picks[k]].chars().collect();
                    chars.splice(at..at, token);
                }
                2 => {
                    let span: Vec<char> = chars[at..end].to_vec();
                    chars.splice(at..at, span);
                }
                3 => chars.truncate(at),
                _ => {
                    let token: Vec<char> = TOKENS[picks[k]].chars().collect();
                    chars.splice(at..end, token);
                }
            }
        }
        let text: String = chars.into_iter().collect();
        parse_all(&text);
    }
}

#[test]
fn million_deep_nesting_is_an_error_on_a_small_stack() {
    const DEEP: usize = 1_000_000;
    let inputs = [
        format!("{{\"wire\":{}", "[".repeat(DEEP)),
        format!("{{\"unknown\":{}", "[".repeat(DEEP)),
        "{\"fleet\":{\"a\":".repeat(DEEP),
        "[".repeat(DEEP),
        "[{\"metrics\":{\"x\":".repeat(DEEP),
    ];
    let handle = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            for text in &inputs {
                assert!(serde_json::from_str::<ServeStatus>(text).is_err());
                assert!(serde_json::from_str::<MachineSnapshot>(text).is_err());
                assert!(serde_json::from_str::<ChaosPlan>(text).is_err());
                assert!(serde_json::from_str::<MonitorLog>(text).is_err());
                assert!(serde_json::from_str::<Vec<BenchEntry>>(text).is_err());
            }
        })
        .expect("spawn a small-stack thread");
    handle
        .join()
        .expect("deep input must be refused, not overflow the stack");
}
