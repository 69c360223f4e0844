//! Trigger machinery (§6 of the paper).
//!
//! A **declaration** (on a class, see `ode-model`) becomes active only when
//! an application *activates* it on a particular object with concrete
//! arguments — the paper's `trigger-id = object->T(args)`. Activations are
//! persistent (they live in the catalog) and are indexed by subject object.
//!
//! Firing semantics, faithfully to §6:
//!
//! * conditions are (conceptually) evaluated **at the end of each
//!   transaction** — the engine evaluates them for every activation whose
//!   subject was written by the committing transaction, which is
//!   observationally equivalent because conditions only read the subject,
//! * each firing spawns an **independent transaction** running the trigger
//!   action after the triggering transaction commits ("weak coupling",
//!   HiPAC) — if the triggering transaction aborts, nothing fires,
//! * every firing is first a durable [`PendingEvent`], written in the
//!   triggering commit's own batch, and joins the engine's one backlog,
//!   where it is either *claimed* or *ready*. One dispatch path
//!   ([`crate::Database::dispatch_firing`]) runs it and acknowledges it in
//!   the action's batch — on the committing thread, which claims its own
//!   events at birth and then drains any ready backlog (inline, the
//!   default), or on an attached scheduler's workers, which claim ready
//!   events (decoupled),
//! * **once-only** triggers (the default) deactivate upon firing and must
//!   be re-activated explicitly; **perpetual** triggers re-arm,
//! * action transactions can fire further triggers; the engine bounds the
//!   cascade depth (the paper leaves it unbounded, which does not survive
//!   contact with a perpetual trigger whose action re-satisfies its own
//!   condition).

use ode_model::{ClassId, Oid, Value};

/// Handle returned by trigger activation; used for explicit deactivation
/// (`trigger-id` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TriggerId(pub u64);

impl std::fmt::Display for TriggerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trigger#{}", self.0)
    }
}

/// A live activation: one (object, trigger, args) binding.
#[derive(Debug, Clone)]
pub struct Activation {
    /// Unique id.
    pub id: u64,
    /// Subject object.
    pub oid: Oid,
    /// Trigger name on the subject's class.
    pub trigger: String,
    /// Arguments bound to the declaration's parameters.
    pub args: Vec<Value>,
}

/// One fired trigger, as reported in [`crate::CommitInfo`].
#[derive(Debug, Clone)]
pub struct FiredTrigger {
    /// Activation id.
    pub id: TriggerId,
    /// Subject object.
    pub oid: Oid,
    /// Trigger name.
    pub trigger: String,
}

impl FiredTrigger {
    pub(crate) fn of(event: &PendingEvent) -> FiredTrigger {
        FiredTrigger {
            id: TriggerId(event.activation),
            oid: event.oid,
            trigger: event.trigger.clone(),
        }
    }
}

/// A trigger action that failed. Weak coupling means the triggering
/// transaction has already committed; failures are reported, not propagated
/// as rollbacks.
#[derive(Debug)]
pub struct TriggerFailure {
    /// Activation id whose action failed.
    pub id: TriggerId,
    /// Subject object.
    pub oid: Oid,
    /// The error.
    pub error: crate::error::OdeError,
}

/// One firing, as a durable event. The committing transaction writes one
/// pending record per event into the catalog in the *same* store batch
/// that (for once-only triggers) deletes the activation, so a crash
/// between commit and action neither loses nor double-arms the firing.
/// The event carries everything needed to run the action after reopen —
/// the activation record may no longer exist.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingEvent {
    /// Event id, unique database-wide (distinct from the activation id).
    pub id: u64,
    /// Activation that fired.
    pub activation: u64,
    /// Subject object.
    pub oid: Oid,
    /// Trigger name (resolved on the subject's class at dispatch).
    pub trigger: String,
    /// Arguments bound to the declaration's parameters.
    pub args: Vec<Value>,
    /// Cascade depth the action transaction runs at (triggering depth + 1).
    pub depth: u64,
}

/// What a committed transaction wrote, delivered to an installed commit
/// observer (live subscriptions, and a scheduler's wake-up). Deletes are
/// not reported: a subscription predicate cannot match an object that no
/// longer exists.
#[derive(Debug, Clone)]
pub struct CommitNote {
    /// Commit epoch the writes were published at.
    pub epoch: u64,
    /// Objects created or modified, with their dynamic classes.
    pub writes: Vec<(Oid, ClassId)>,
    /// Trigger events the commit left ready to be claimed (decoupled mode).
    pub ready: usize,
}

/// Summary returned by [`crate::Transaction::commit`].
#[derive(Debug, Default)]
pub struct CommitInfo {
    /// Triggers fired by this transaction and its cascade, in firing order,
    /// then any ready backlog the commit drained (inline mode).
    pub fired: Vec<FiredTrigger>,
    /// Action transactions that failed (weak coupling: reported only).
    pub failures: Vec<TriggerFailure>,
    /// Firings left ready for the attached scheduler (decoupled mode;
    /// empty otherwise). Their actions run asynchronously, after this
    /// commit returns; in inline mode they run before it returns and are
    /// listed in `fired` instead.
    pub enqueued: Vec<FiredTrigger>,
}

impl CommitInfo {
    /// Did anything fire?
    pub fn any_fired(&self) -> bool {
        !self.fired.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_id_display() {
        assert_eq!(TriggerId(7).to_string(), "trigger#7");
    }

    #[test]
    fn commit_info_default_is_quiet() {
        let info = CommitInfo::default();
        assert!(!info.any_fired());
        assert!(info.failures.is_empty());
    }
}
