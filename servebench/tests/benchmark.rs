//! The benchmark's own checks: deterministic generators, the
//! `many-small` hot set and fresh texts, and the metric names against
//! `BENCHMARK.json`.

use servebench::report::{END_TO_END, PER_LAYER};
use servebench::workload::{
    documents, fresh_text, interpret, large_result_bytes, HotSet, Stream, Workload, FRESH_ONE_IN,
    HOT_TEXTS, LARGE_RESULT_TARGET,
};
use std::collections::HashSet;

fn xml_of_all(workload: Workload, seed: u64) -> Vec<String> {
    documents(workload, seed)
        .iter()
        .map(|d| d.to_xml())
        .collect()
}

fn stream_head(
    workload: Workload,
    seed: u64,
    client: usize,
    pairs: usize,
    n: usize,
) -> Vec<String> {
    Stream::new(workload, seed, client, pairs)
        .take(n)
        .map(|r| format!("{r:?}"))
        .collect()
}

#[test]
fn generators_are_deterministic_for_a_seed() {
    for workload in Workload::ALL {
        assert_eq!(
            xml_of_all(workload, 7),
            xml_of_all(workload, 7),
            "{workload:?} documents"
        );
        let hot = HotSet::build(workload, &documents(workload, 7));
        assert_eq!(
            hot,
            HotSet::build(workload, &documents(workload, 7)),
            "{workload:?} hot set"
        );
        for client in 0..2 {
            assert_eq!(
                stream_head(workload, 7, client, hot.pairs.len(), 2000),
                stream_head(workload, 7, client, hot.pairs.len(), 2000),
                "{workload:?} stream {client}"
            );
        }
    }
    // The seed is an input: it changes what the seeded workloads serve.
    for workload in [Workload::LargeResult, Workload::ManySmall] {
        assert_ne!(
            xml_of_all(workload, 7),
            xml_of_all(workload, 8),
            "{workload:?}"
        );
    }
}

#[test]
fn large_result_answers_stay_near_the_target() {
    for seed in 0..8 {
        let docs = documents(Workload::LargeResult, seed);
        let hot = HotSet::build(Workload::LargeResult, &docs);
        let bytes = hot.pairs[0].expected.len();
        assert_eq!(large_result_bytes(&docs[0]), bytes, "seed {seed}");
        let off = bytes.abs_diff(LARGE_RESULT_TARGET) as f64 / LARGE_RESULT_TARGET as f64;
        assert!(off < 0.05, "seed {seed}: {bytes} bytes");
    }
}

#[test]
fn many_small_hot_set_is_exact_and_fresh_texts_never_repeat() {
    let docs = documents(Workload::ManySmall, 3);
    let hot = HotSet::build(Workload::ManySmall, &docs);
    assert_eq!(hot.texts.len(), HOT_TEXTS);
    let distinct: HashSet<&String> = hot.texts.iter().collect();
    assert_eq!(distinct.len(), HOT_TEXTS, "hot texts are distinct");

    let mut sent = HashSet::new();
    let mut fresh = 0;
    let requests = 4000;
    for client in 0..2 {
        for request in Stream::new(Workload::ManySmall, 3, client, hot.pairs.len()).take(requests) {
            let text = hot.text(client, request).into_owned();
            if request.fresh.is_some() {
                fresh += 1;
                assert!(
                    !distinct.contains(&text),
                    "fresh text {text:?} is a hot text"
                );
                assert!(sent.insert(text), "fresh text repeated");
            }
        }
    }
    // About one request in eight is fresh.
    let expected = 2 * requests / FRESH_ONE_IN;
    assert!(
        fresh > expected * 3 / 4 && fresh < expected * 5 / 4,
        "{fresh} fresh requests"
    );

    // A fresh text answers exactly what its base text answers.
    let trees: Vec<_> = docs.iter().map(|d| d.to_tree()).collect();
    for (i, pair) in hot.pairs.iter().enumerate().step_by(37) {
        let text = fresh_text(1, i as u64, &hot.texts[pair.text]);
        assert_eq!(
            interpret(&text, &trees[pair.doc]).as_ref(),
            Ok(&pair.expected),
            "{text}"
        );
    }
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` entries of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("every metric has a unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_declared_in_benchmark_json() {
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let emitted: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        for (name, _) in &emitted {
            assert!(is_metric_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        assert_eq!(
            emitted,
            declared(section),
            "{section} matches BENCHMARK.json"
        );
    }
}

#[test]
fn a_short_run_emits_exactly_the_declared_metrics() {
    for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let outcome = servebench::run(Workload::ManySmall, 5, 0.5, traced);
        assert!(outcome.correct(), "{:?}", outcome.notes);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        let line = outcome.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}
