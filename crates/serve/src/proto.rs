//! The JSON-lines serving protocol: one request object per input line,
//! one response object per output line, flushed per line so pipes never
//! deadlock.
//!
//! Requests:
//! * `{"op":"info"}` — model metadata:
//!   `{"ok":true,"model_seq":3,"features":128,"objective":"svm","lambda":0.001}`
//! * `{"op":"score","rows":[[[0,1.5],[7,-2.0]],[[3,0.25]]]}` — each row
//!   is a sparse `[index, value]` pair list; the response carries the
//!   decision values and predictions in row order plus the `model_seq`
//!   the batch was scored against (so hot swaps are observable):
//!   `{"ok":true,"model_seq":3,"objective":"svm","decisions":[…],"predictions":[…]}`
//!
//! Every failure — unparseable JSON, unknown op, malformed rows, no
//! model published yet — answers `{"ok":false,"error":"…"}` on one line
//! and the session keeps serving; only input EOF (or a broken output
//! pipe) ends it. Each scored batch reads one [`ModelSlot`] snapshot, so
//! a batch is never scored against a blend of two models.

use crate::engine::{batch_from_pairs, BatchScorer};
use crate::json::{escape, num_f32, Json};
use crate::slot::ModelSlot;
use crate::ServeError;
use std::io::{BufRead, Write};

/// Per-session counters, returned when the input side closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Rows scored across all `score` requests.
    pub scored_rows: u64,
    /// Requests answered with `"ok":false`.
    pub errors: u64,
}

/// Parse the `rows` field of a score request into sparse pair lists.
fn parse_rows(rows: &Json) -> Result<Vec<Vec<(u32, f32)>>, ServeError> {
    let rows = rows
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest("\"rows\" must be an array of rows".into()))?;
    let mut out = Vec::with_capacity(rows.len());
    for (r, row) in rows.iter().enumerate() {
        let pairs = row.as_arr().ok_or_else(|| {
            ServeError::BadRequest(format!("row {r} must be an array of [index, value] pairs"))
        })?;
        let mut parsed = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let err = || {
                ServeError::BadRequest(format!(
                    "row {r} must contain [index, value] pairs of numbers"
                ))
            };
            let pair = pair.as_arr().ok_or_else(err)?;
            if pair.len() != 2 {
                return Err(err());
            }
            let idx = pair[0].as_f64().ok_or_else(err)?;
            let val = pair[1].as_f64().ok_or_else(err)?;
            if idx < 0.0 || idx.fract() != 0.0 || idx > u32::MAX as f64 {
                return Err(ServeError::BadRequest(format!(
                    "row {r}: feature index {idx} is not a valid u32"
                )));
            }
            parsed.push((idx as u32, val as f32));
        }
        out.push(parsed);
    }
    Ok(out)
}

fn join_f32(values: &[f32]) -> String {
    values.iter().map(|&v| num_f32(v)).collect::<Vec<_>>().join(",")
}

/// One answered request: the response line (always valid JSON, no
/// trailing newline) plus its accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The JSON response object, ready to write as one line.
    pub line: String,
    /// Whether the response carries `"ok":true`.
    pub ok: bool,
    /// Rows scored by this request (0 unless it was a successful `score`).
    pub scored_rows: u64,
}

/// Answer one request line; `Ok` responses carry the line and the number
/// of rows scored.
fn answer(line: &str, slot: &ModelSlot, scorer: &BatchScorer) -> Result<(String, u64), ServeError> {
    let req = Json::parse(line).map_err(|e| ServeError::BadRequest(format!("bad JSON: {e}")))?;
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("request needs a string \"op\" field".into()))?;
    match op {
        "info" => match slot.read() {
            Some(snap) => Ok((
                format!(
                    "{{\"ok\":true,\"model_seq\":{},\"features\":{},\"objective\":{},\"lambda\":{}}}",
                    snap.seq,
                    snap.beta.len(),
                    escape(snap.objective.label()),
                    snap.lambda,
                ),
                0,
            )),
            None => Ok((
                format!(
                    "{{\"ok\":true,\"model_seq\":0,\"features\":{},\"objective\":null,\"lambda\":null}}",
                    slot.features(),
                ),
                0,
            )),
        },
        "score" => {
            let rows = req
                .get("rows")
                .ok_or_else(|| ServeError::BadRequest("score request needs \"rows\"".into()))?;
            let rows = parse_rows(rows)?;
            let snap = slot.read().ok_or(ServeError::NoModel)?;
            let batch = batch_from_pairs(&rows, snap.beta.len())?;
            let scored = scorer.score(&batch, snap.objective, &snap.beta)?;
            Ok((
                format!(
                    "{{\"ok\":true,\"model_seq\":{},\"objective\":{},\"decisions\":[{}],\"predictions\":[{}]}}",
                    snap.seq,
                    escape(snap.objective.label()),
                    join_f32(&scored.decisions),
                    join_f32(&scored.predictions),
                ),
                scored.decisions.len() as u64,
            ))
        }
        other => Err(ServeError::BadRequest(format!(
            "unknown op {other:?} (info|score|reload)"
        ))),
    }
}

/// Answer one request line, folding failures into an `"ok":false`
/// response. This is the per-line entry point: [`serve_lines`] calls it
/// for every input line, and callers that interpose extra ops (the CLI
/// handles `reload` itself) fall back to it for everything else.
pub fn respond(line: &str, slot: &ModelSlot, scorer: &BatchScorer) -> Response {
    match answer(line, slot, scorer) {
        Ok((line, scored_rows)) => Response { line, ok: true, scored_rows },
        Err(e) => Response {
            line: format!("{{\"ok\":false,\"error\":{}}}", escape(&e.to_string())),
            ok: false,
            scored_rows: 0,
        },
    }
}

/// Serve JSON-lines requests from `input` until EOF, writing one
/// response per line to `output` (flushed per line). Errors answer
/// `"ok":false` and never kill the session; only I/O failure on the
/// transport itself returns `Err`.
pub fn serve_lines<R: BufRead, W: Write>(
    slot: &ModelSlot,
    scorer: &BatchScorer,
    input: R,
    mut output: W,
) -> std::io::Result<ServeStats> {
    let mut stats = ServeStats::default();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        stats.requests += 1;
        let response = respond(&line, slot, scorer);
        stats.scored_rows += response.scored_rows;
        if !response.ok {
            stats.errors += 1;
        }
        writeln!(output, "{}", response.line)?;
        output.flush()?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_core::ObjectiveKind;
    use scd_sched::global;

    fn session(input: &str, slot: &ModelSlot) -> (Vec<String>, ServeStats) {
        let scorer = BatchScorer::new(global());
        let mut out = Vec::new();
        let stats = serve_lines(slot, &scorer, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), stats)
    }

    #[test]
    fn score_roundtrip_reports_model_seq_and_predictions() {
        let slot = ModelSlot::new(3);
        slot.publish(ObjectiveKind::Svm, 1e-3, &[1.0, -1.0, 0.5]);
        let (lines, stats) = session(
            "{\"op\":\"info\"}\n{\"op\":\"score\",\"rows\":[[[0,2.0]],[[1,3.0]],[]]}\n",
            &slot,
        );
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"model_seq\":1"), "{}", lines[0]);
        assert!(lines[0].contains("\"objective\":\"svm\""), "{}", lines[0]);
        let parsed = Json::parse(&lines[1]).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        let preds = parsed.get("predictions").and_then(Json::as_arr).unwrap();
        assert_eq!(
            preds.iter().map(|p| p.as_f64().unwrap()).collect::<Vec<_>>(),
            vec![1.0, -1.0, 1.0],
            "sign rule: 2·1 > 0, 3·−1 < 0, empty row ⟨⟩ = 0 → +1"
        );
        assert_eq!(stats, ServeStats { requests: 2, scored_rows: 3, errors: 0 });
    }

    #[test]
    fn malformed_requests_answer_errors_and_keep_serving() {
        let slot = ModelSlot::new(2);
        slot.publish(ObjectiveKind::Ridge, 1e-2, &[1.0, 2.0]);
        let input = "not json\n\
                     {\"op\":\"nope\"}\n\
                     {\"op\":\"score\"}\n\
                     {\"op\":\"score\",\"rows\":[[[9,1.0]]]}\n\
                     {\"op\":\"score\",\"rows\":[[[0,1.0]]]}\n";
        let (lines, stats) = session(input, &slot);
        assert_eq!(lines.len(), 5);
        for bad in &lines[..4] {
            let parsed = Json::parse(bad).expect("error responses are valid JSON");
            assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert!(parsed.get("error").and_then(Json::as_str).is_some());
        }
        assert!(lines[4].contains("\"ok\":true"), "session recovered: {}", lines[4]);
        assert_eq!(stats.errors, 4);
        assert_eq!(stats.requests, 5);
    }

    #[test]
    fn empty_slot_info_ok_but_scoring_is_an_error() {
        let slot = ModelSlot::new(4);
        let (lines, stats) = session(
            "{\"op\":\"info\"}\n{\"op\":\"score\",\"rows\":[[[0,1.0]]]}\n",
            &slot,
        );
        assert!(lines[0].contains("\"model_seq\":0"));
        assert!(lines[0].contains("\"objective\":null"));
        assert!(lines[1].contains("no model published"), "{}", lines[1]);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn blank_lines_are_ignored() {
        let slot = ModelSlot::new(1);
        let (lines, stats) = session("\n  \n{\"op\":\"info\"}\n", &slot);
        assert_eq!(lines.len(), 1);
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn hot_swap_between_requests_changes_seq_and_scores() {
        let slot = ModelSlot::new(1);
        let scorer = BatchScorer::new(global());
        slot.publish(ObjectiveKind::Ridge, 1e-2, &[2.0]);
        let r1 = respond("{\"op\":\"score\",\"rows\":[[[0,1.0]]]}", &slot, &scorer);
        slot.publish(ObjectiveKind::Ridge, 1e-2, &[5.0]);
        let r2 = respond("{\"op\":\"score\",\"rows\":[[[0,1.0]]]}", &slot, &scorer);
        assert!(r1.ok && r2.ok);
        assert_eq!((r1.scored_rows, r2.scored_rows), (1, 1));
        assert!(r1.line.contains("\"model_seq\":1") && r1.line.contains("[2]"), "{}", r1.line);
        assert!(r2.line.contains("\"model_seq\":2") && r2.line.contains("[5]"), "{}", r2.line);
    }
}
