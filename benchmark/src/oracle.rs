//! The answer oracle. Expected answers come from a different path than the
//! one under test: the snapshot decoded by `snapshot::load` into an owned
//! `GraphStore`, queried in-process. A wire reply from the mapped server
//! must agree on total rows, reference steps, and the hash of its `data`
//! rows, or the request counts as failed.

use crate::config::MAX_RESPONSE_ROWS;
use crate::json::Json;
use frappe_query::Engine;
use frappe_store::GraphView;

/// What a correct reply to one request carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Total result rows (before the reply cap).
    pub rows: u64,
    /// Expansion steps of the reference run.
    pub steps: u64,
    /// [`hash_rows`] of the rows a reply carries (the first
    /// [`MAX_RESPONSE_ROWS`] in result order when capped).
    pub hash: u64,
}

/// FNV-1a over the rows as a sorted multiset: cells are joined with a unit
/// separator, rows sorted bytewise and terminated with a record separator,
/// so the hash ignores row order but not multiplicity or cell boundaries.
pub fn hash_rows<R, S>(rows: impl IntoIterator<Item = R>) -> u64
where
    R: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut keys: Vec<String> = rows
        .into_iter()
        .map(|row| {
            let mut key = String::new();
            for (i, cell) in row.into_iter().enumerate() {
                if i > 0 {
                    key.push('\u{1f}');
                }
                key.push_str(cell.as_ref());
            }
            key
        })
        .collect();
    keys.sort_unstable();
    let mut bytes = Vec::with_capacity(keys.iter().map(|k| k.len() + 1).sum());
    for key in &keys {
        bytes.extend_from_slice(key.as_bytes());
        bytes.push(0x1e);
    }
    frappe_query::fingerprint::fnv1a(&bytes)
}

/// Runs `text` on the reference graph. Errors carry the engine's message
/// (budget exhaustion is how over-band candidates are refused cheaply).
pub fn reference<G: GraphView>(engine: &Engine, g: &G, text: &str) -> Result<Expected, String> {
    let result = engine.run_str(g, text).map_err(|e| e.to_string())?;
    let hash = hash_rows(
        result
            .rows
            .iter()
            .take(MAX_RESPONSE_ROWS)
            .map(|row| row.iter().map(|v| v.to_string())),
    );
    Ok(Expected {
        rows: result.rows.len() as u64,
        steps: result.steps,
        hash,
    })
}

/// The fields of a reply line the driver looks at.
#[derive(Debug, PartialEq)]
pub struct Reply {
    pub seq: Option<u64>,
    /// `Ok` with what the answer carried, or the refusal/error code
    /// (`shedded`, `throttled`, `line_too_long`, `query_error`, …).
    pub outcome: Result<Expected, String>,
}

/// Parses one reply line. `Err` means the line is not a reply at all.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let doc = Json::parse(line)?;
    let seq = doc.get("seq").and_then(Json::as_u64);
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = doc.get("code").and_then(Json::as_str).unwrap_or("not_ok");
        let detail = doc.get("error").and_then(Json::as_str).unwrap_or("");
        return Ok(Reply {
            seq,
            outcome: Err(format!("{code}: {detail}")),
        });
    }
    let field = |name: &str| {
        doc.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("reply has no integer {name:?}"))
    };
    let data = doc
        .get("data")
        .and_then(Json::as_arr)
        .ok_or("reply has no \"data\" array")?;
    let mut rows = Vec::with_capacity(data.len());
    for row in data {
        let cells = row.as_arr().ok_or("data row is not an array")?;
        let cells: Option<Vec<&str>> = cells.iter().map(Json::as_str).collect();
        rows.push(cells.ok_or("data cell is not a string")?);
    }
    Ok(Reply {
        seq,
        outcome: Ok(Expected {
            rows: field("rows")?,
            steps: field("steps")?,
            hash: hash_rows(rows),
        }),
    })
}

/// Holds a reply's outcome against the expected answer; the error says
/// which of the three disagreed.
pub fn verify(outcome: &Result<Expected, String>, expected: &Expected) -> Result<(), String> {
    match outcome {
        Err(code) => Err(code.clone()),
        Ok(got) if got == expected => Ok(()),
        Ok(got) => Err(format!(
            "answer differs: rows {} vs {}, steps {} vs {}, hash {:016x} vs {:016x}",
            got.rows, expected.rows, got.steps, expected.steps, got.hash, expected.hash
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_order_independent_but_not_blind() {
        let a = hash_rows([vec!["(n1)", "x"], vec!["(n2)", "y"], vec!["(n3)", "z"]]);
        let b = hash_rows([vec!["(n3)", "z"], vec!["(n1)", "x"], vec!["(n2)", "y"]]);
        assert_eq!(a, b);
        // Multiplicity, cell boundaries and content all count.
        assert_ne!(a, hash_rows([vec!["(n1)", "x"], vec!["(n2)", "y"]]));
        assert_ne!(hash_rows([vec!["ab", "c"]]), hash_rows([vec!["a", "bc"]]));
        assert_ne!(hash_rows([vec!["a"], vec!["a"]]), hash_rows([vec!["a"]]));
        assert_ne!(
            hash_rows([vec!["a"], vec!["b"]]),
            hash_rows([vec!["a", "b"]])
        );
        // The empty answer hashes to the FNV offset basis.
        assert_eq!(hash_rows(Vec::<Vec<&str>>::new()), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn reply_parsing_and_verification() {
        let expected = Expected {
            rows: 2,
            steps: 9,
            hash: hash_rows([vec!["(n2)"], vec!["(n1)"]]),
        };
        let ok = r#"{"ok": true, "seq": 4, "fingerprint": "ab", "rows": 2, "steps": 9, "total_ns": 1, "columns": ["m"], "data": [["(n1)"], ["(n2)"]]}"#;
        let reply = parse_reply(ok).unwrap();
        assert_eq!(reply.seq, Some(4));
        assert_eq!(verify(&reply.outcome, &expected), Ok(()));

        let wrong_steps = ok.replace("\"steps\": 9", "\"steps\": 10");
        assert!(verify(&parse_reply(&wrong_steps).unwrap().outcome, &expected).is_err());
        let wrong_row = ok.replace("(n2)", "(n3)");
        assert!(verify(&parse_reply(&wrong_row).unwrap().outcome, &expected).is_err());

        let shed = r#"{"ok": false, "seq": 5, "code": "shedded", "state": "shedding", "retry_after_ms": 3, "error": "server is shedding load"}"#;
        let reply = parse_reply(shed).unwrap();
        assert_eq!(reply.seq, Some(5));
        assert!(verify(&reply.outcome, &expected)
            .unwrap_err()
            .starts_with("shedded"));
        assert!(parse_reply("not json").is_err());
    }
}
