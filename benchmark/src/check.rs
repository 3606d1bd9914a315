//! Correctness checks, run on every response inside the timed binary.
//!
//! A wrong verdict is the only failure that matters for this system, so a
//! run that is fast and wrong must not produce a number: each check here
//! turns into a failed operation.

use hpcapps::AppSpec;

/// What a response has to satisfy to count as correct.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A cold verdict body: its `required_model` must be the paper's.
    Model(&'static str),
    /// A warm body: byte-identical to the one recorded in set-up, and —
    /// behind the fleet's entry node — served by the ring's owner
    /// (`None` = the entry node itself, which adds no header).
    Bytes {
        body: std::sync::Arc<[u8]>,
        served_by: Option<u32>,
    },
}

/// The weakest model the paper says this configuration needs (§6.3):
/// distinct-process conflicts under a model rule that model out.
pub fn paper_model(spec: &AppSpec) -> &'static str {
    let distinct = |m: hpcapps::Marks| m.waw_d || m.raw_d;
    if !distinct(spec.expected_session) {
        "session"
    } else if !distinct(spec.expected_commit) {
        "commit"
    } else {
        "strong"
    }
}

/// The `required_model` value of a verdict body.
pub fn verdict_model(body: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"required_model\"")? + "\"required_model\"".len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

impl Expect {
    pub fn check(&self, status: u16, served_by: Option<u32>, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("status {status}"));
        }
        match self {
            Expect::Model(want) => match verdict_model(body) {
                Some(got) if got == *want => Ok(()),
                got => Err(format!("required_model {got:?}, paper says {want:?}")),
            },
            Expect::Bytes {
                body: want,
                served_by: owner,
            } => {
                if body != &want[..] {
                    Err("body differs from the one recorded in set-up".to_string())
                } else if served_by != *owner {
                    Err(format!("served by {served_by:?}, ring owner is {owner:?}"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Table 4 marks and verdict of one batch-analyzed configuration against
/// the registry's paper expectation.
pub fn check_batch_run(run: &report_gen::AnalyzedRun) -> Result<(), String> {
    let spec = run.spec;
    if run.session_marks() != spec.expected_session.as_tuple() {
        return Err(format!(
            "{}: session marks {:?}, paper says {:?}",
            run.name(),
            run.session_marks(),
            spec.expected_session.as_tuple()
        ));
    }
    if run.verdict.required.name() != paper_model(spec) {
        return Err(format!(
            "{}: requires {}, paper says {}",
            run.name(),
            run.verdict.required.name(),
            paper_model(spec)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const BODY: &[u8] =
        b"{\n  \"config\": \"FLASH-fbs\",\n  \"required_model\": \"commit\",\n  \"race_free\": true\n}\n";

    #[test]
    fn paper_models_follow_table4() {
        for spec in hpcapps::specs().iter().filter(|s| s.in_table4) {
            let want = if spec.config_name() == "FLASH-fbs" {
                "commit"
            } else {
                "session"
            };
            assert_eq!(paper_model(spec), want, "{}", spec.config_name());
        }
    }

    #[test]
    fn verdict_checker_rejects_a_tampered_verdict() {
        assert_eq!(verdict_model(BODY), Some("commit"));
        assert!(Expect::Model("commit").check(200, None, BODY).is_ok());
        let tampered = String::from_utf8_lossy(BODY).replace("commit", "session");
        assert!(Expect::Model("commit")
            .check(200, None, tampered.as_bytes())
            .is_err());
        assert!(Expect::Model("commit").check(422, None, BODY).is_err());
        assert!(Expect::Model("commit").check(200, None, b"{}").is_err());
        assert!(Expect::Model("commit")
            .check(200, None, &[0xff, 0xfe])
            .is_err());
    }

    #[test]
    fn byte_checker_rejects_a_tampered_body_and_a_wrong_owner() {
        let expect = Expect::Bytes {
            body: Arc::from(BODY),
            served_by: Some(2),
        };
        assert!(expect.check(200, Some(2), BODY).is_ok());
        let mut flipped = BODY.to_vec();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(expect.check(200, Some(2), &flipped).is_err());
        assert!(expect.check(200, Some(2), &BODY[..BODY.len() - 1]).is_err());
        assert!(expect.check(200, None, BODY).is_err());
        assert!(expect.check(200, Some(1), BODY).is_err());
        assert!(expect.check(503, Some(2), BODY).is_err());
    }
}
