//! The oracle's vocabulary: what a generator expects of a statement, what
//! came back, and whether the two agree.

/// What the generator's in-memory model says a statement must produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A query: this many rows, and this order-independent checksum
    /// ([`oid_hash`] summed over every object id printed).
    Rows { count: usize, oid_sum: u64 },
    /// `pnew`: one object created.
    Created,
    /// `update`: this many objects updated and this many `reorder` firings
    /// handed to the scheduler.
    Updated { count: usize, enqueued: usize },
    /// `delete`: this many objects deleted.
    Deleted(usize),
    /// The statement violates a class constraint and must abort with the
    /// engine's typed constraint error (§5).
    ConstraintAbort,
    /// A fixpoint call: the closure holds this many parts.
    Closure(usize),
    /// A read-back of one object under a predicate an asynchronous trigger
    /// action makes true: no row yet, or exactly the object with this
    /// [`oid_hash`]. The generator learns which from the reply.
    ZeroOrOne { oid_sum: u64 },
}

/// What a DML statement did, as the engine's typed result (in process) or the
/// shell's reply text (over the wire) says it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Applied {
    Created,
    Updated { count: usize, enqueued: usize },
    Deleted(usize),
}

/// What came back for one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The statement ran; its printed output.
    Output(String),
    /// The statement ran in this process; its typed result.
    Applied(Applied),
    /// The engine (or analyzer) rejected it; the typed error's text.
    Rejected(String),
    /// Anything else: transport, protocol, timeout, exhausted retries.
    Failed(String),
}

/// FNV-1a over an object id as printed (`cluster:page.slot`).
pub fn oid_hash(oid: &str) -> u64 {
    oid.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Row count and oid checksum of a query's printed output: one
/// `var = oid (class) { ... }` line per bound variable per row, then
/// `N row(s)`.
pub fn parse_rows(out: &str) -> Option<(usize, u64)> {
    let mut sum = 0u64;
    let mut count = None;
    for line in out.lines() {
        if let Some(n) = line.strip_suffix(" row(s)") {
            count = n.parse().ok();
        } else if let Some((_, rest)) = line.split_once(" = ") {
            let oid = rest.split_once(' ').map_or(rest, |(oid, _)| oid);
            sum = sum.wrapping_add(oid_hash(oid));
        }
    }
    count.map(|c| (c, sum))
}

/// What a DML reply printed by the shell says was done: `created <oid>`,
/// `updated N object(s)` followed by one `trigger `t` enqueued on <oid>` line
/// per firing handed to the scheduler, or `deleted N object(s)`.
pub fn parse_applied(out: &str) -> Option<Applied> {
    let first = out.lines().next()?;
    let count = |verb: &str| -> Option<usize> {
        first
            .strip_prefix(verb)?
            .strip_suffix(" object(s)")?
            .parse()
            .ok()
    };
    if first.starts_with("created ") {
        Some(Applied::Created)
    } else if let Some(count) = count("updated ") {
        let enqueued = out.lines().filter(|l| l.contains("` enqueued on ")).count();
        Some(Applied::Updated { count, enqueued })
    } else {
        count("deleted ").map(Applied::Deleted)
    }
}

/// Does `reply` agree with `expect`? The error names what differed.
pub fn check(expect: &Expect, reply: &Reply) -> Result<(), String> {
    let differs = |got: String| Err(format!("expected {expect:?}, got {got}"));
    let applied = match reply {
        Reply::Applied(applied) => Some(*applied),
        Reply::Output(out) => parse_applied(out),
        _ => None,
    };
    let rows = match reply {
        Reply::Output(out) => parse_rows(out),
        _ => None,
    };
    match (expect, reply) {
        (Expect::Rows { count, oid_sum }, _) if rows == Some((*count, *oid_sum)) => Ok(()),
        (Expect::ZeroOrOne { oid_sum }, _)
            if rows == Some((0, 0)) || rows == Some((1, *oid_sum)) =>
        {
            Ok(())
        }
        (Expect::Rows { .. } | Expect::ZeroOrOne { .. }, Reply::Output(out)) => match rows {
            Some((c, s)) => differs(format!("{c} rows, oid checksum {s:#x}")),
            None => differs(format!("unparsable rows: {out:.80}")),
        },
        (Expect::Created, _) if applied == Some(Applied::Created) => Ok(()),
        (Expect::Updated { count, enqueued }, _)
            if applied
                == Some(Applied::Updated {
                    count: *count,
                    enqueued: *enqueued,
                }) =>
        {
            Ok(())
        }
        (Expect::Deleted(n), _) if applied == Some(Applied::Deleted(*n)) => Ok(()),
        (Expect::ConstraintAbort, Reply::Rejected(msg)) if msg.starts_with("constraint `") => {
            Ok(())
        }
        (Expect::Closure(n), Reply::Output(out)) if out.parse() == Ok(*n) => Ok(()),
        (_, Reply::Applied(applied)) => differs(format!("{applied:?}")),
        (_, Reply::Output(out)) => differs(format!("output {out:.120}")),
        (_, Reply::Rejected(msg)) => differs(format!("engine error {msg:.120}")),
        (_, Reply::Failed(msg)) => differs(format!("failure {msg:.120}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_ROWS: &str = "s = 2:1.0 (stockitem) { name: \"a = b\", quantity: 5 }\n\
                            s = 2:1.1 (stockitem) { name: \"b\", quantity: 7 }\n2 row(s)";

    #[test]
    fn rows_are_counted_and_summed() {
        let sum = oid_hash("2:1.0").wrapping_add(oid_hash("2:1.1"));
        assert_eq!(parse_rows(TWO_ROWS), Some((2, sum)));
        assert_eq!(parse_rows("0 row(s)"), Some((0, 0)));
        assert_eq!(parse_rows("garbage"), None);
    }

    #[test]
    fn oracle_catches_a_wrong_count_and_a_wrong_object() {
        let reply = Reply::Output(TWO_ROWS.into());
        let sum = oid_hash("2:1.0").wrapping_add(oid_hash("2:1.1"));
        let right = Expect::Rows {
            count: 2,
            oid_sum: sum,
        };
        assert!(check(&right, &reply).is_ok());
        let flipped = Expect::Rows {
            count: 3,
            oid_sum: sum,
        };
        assert!(check(&flipped, &reply).is_err());
        let other = Expect::Rows {
            count: 2,
            oid_sum: sum ^ 1,
        };
        assert!(check(&other, &reply).is_err());
    }

    #[test]
    fn dml_replies() {
        let fired =
            Reply::Output("updated 1 object(s)\ntrigger `reorder` enqueued on 2:1.0".into());
        assert!(check(
            &Expect::Updated {
                count: 1,
                enqueued: 1
            },
            &fired
        )
        .is_ok());
        assert!(check(
            &Expect::Updated {
                count: 1,
                enqueued: 0
            },
            &fired
        )
        .is_err());
        assert!(check(&Expect::Created, &Reply::Output("created 2:9.3".into())).is_ok());
        assert!(check(
            &Expect::Deleted(1),
            &Reply::Output("deleted 1 object(s)".into())
        )
        .is_ok());
        assert!(check(
            &Expect::Deleted(1),
            &Reply::Output("deleted 0 object(s)".into())
        )
        .is_err());
        let abort = Reply::Rejected(
            "constraint `c0` of class `stockitem` violated by object 2:1.0: quantity >= 0".into(),
        );
        assert!(check(&Expect::ConstraintAbort, &abort).is_ok());
        assert!(check(
            &Expect::Updated {
                count: 1,
                enqueued: 0
            },
            &abort
        )
        .is_err());
        assert!(check(&Expect::ConstraintAbort, &Reply::Failed("timeout".into())).is_err());
    }

    #[test]
    fn typed_dml_results_are_checked_like_printed_ones() {
        let fired = Reply::Applied(Applied::Updated {
            count: 1,
            enqueued: 1,
        });
        let quiet = Expect::Updated {
            count: 1,
            enqueued: 0,
        };
        assert!(check(&quiet, &fired).is_err());
        assert!(check(
            &Expect::Updated {
                count: 1,
                enqueued: 1
            },
            &fired
        )
        .is_ok());
        assert!(check(&Expect::Created, &Reply::Applied(Applied::Created)).is_ok());
        assert!(check(&Expect::Created, &Reply::Applied(Applied::Deleted(1))).is_err());
        assert!(check(&Expect::Deleted(1), &Reply::Applied(Applied::Deleted(0))).is_err());
    }

    #[test]
    fn read_back_accepts_nothing_or_the_one_object() {
        let one = Reply::Output("s = 2:1.0 (stockitem) { quantity: 205 }\n1 row(s)".into());
        let expect = Expect::ZeroOrOne {
            oid_sum: oid_hash("2:1.0"),
        };
        assert!(check(&expect, &one).is_ok());
        assert!(check(&expect, &Reply::Output("0 row(s)".into())).is_ok());
        let other = Expect::ZeroOrOne {
            oid_sum: oid_hash("2:1.1"),
        };
        assert!(check(&other, &one).is_err());
        assert!(check(&expect, &Reply::Output(TWO_ROWS.into())).is_err());
    }
}
