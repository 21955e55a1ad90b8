//! Membership and migration: applying a policy's moves, landing
//! migrations, the fault script, the autoscaler, and the invariant
//! auditor. A server leaves through one take-down path and joins
//! through one bring-up path, whether a fault or the autoscaler moves it.

use super::{ArrivalSource, Event, JobInfo, RebalanceClock, SetRow, World, NO_SERVER};
use crate::autoscaler::ScaleAction;
use crate::policy::{MoveSet, PlacementPolicy};
use crate::spec::{FaultEvent, FAILOVER_DELAY};
use anu_core::{weighted_mean_latency, FileSetId, LoadReport, ServerId};
use anu_des::{SimDuration, SimTime};
use anu_trace::{TraceEvent, TraceLevel, WarnCode};

/// What moves a server out of or into the membership.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// A scripted crash or repair: availability bookkeeping applies.
    Fault,
    /// The autoscaler retiring or commissioning a standby.
    Scale,
}

impl World<'_> {
    /// Update `server`'s capacity fraction, integrating the lost capacity
    /// accrued at the old fraction since the last transition.
    fn set_capacity(&mut self, server: u32, now: SimTime, frac: f64) {
        let st = &mut self.servers[server as usize];
        self.degraded_capacity_secs += (1.0 - st.cap_frac) * now.since(st.cap_since).as_secs_f64();
        st.cap_frac = frac;
        st.cap_since = now;
    }

    pub(super) fn apply_moves(
        &mut self,
        moves: Vec<MoveSet>,
        delay: SimDuration,
        policy_name: &str,
    ) {
        let now = self.cal.now();
        for mv in moves {
            let to = mv.to.0;
            assert!(
                self.servers.get(to as usize).is_some_and(|st| st.alive),
                "{policy_name} moved {} to dead/unknown server {}",
                mv.set,
                mv.to
            );
            let set = mv.set.0 as usize;
            let row = &mut self.sets[set];
            if row.dest().is_some() {
                // Already in flight: honor the newest placement. A
                // failure or recovery can re-partition the map while a
                // set is mid-flush, and letting it land at the stale
                // destination would leave it misplaced until the next
                // planned epoch (the invariant auditor flags exactly
                // that).
                row.dest = to;
                continue;
            }
            if row.owner == to {
                continue;
            }
            // The releasing server drops the set: its cache is flushed.
            // Queued jobs complete at the releasing server (the paper's
            // flush semantics — leaving the "memento" tasks that divergent
            // tuning compensates for).
            let from = row.owner();
            row.warmth = 0;
            row.dest = to;
            if self.tracer.enabled(TraceLevel::Epoch) {
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::MigrationStart {
                        set: mv.set.0,
                        from,
                        to,
                    },
                );
                // Emitted eagerly: tracing must never schedule calendar
                // events, so the *scheduled* flush completion rides in the
                // payload instead of arriving as its own timestamped line.
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::MigrationFlush {
                        set: mv.set.0,
                        from,
                        done_us: (now + self.cfg.migration.flush).0,
                    },
                );
            }
            self.cal
                .schedule(now + delay, Event::MigrationDone(set as u32));
            self.migration_count += 1;
        }
    }

    pub(super) fn handle_migration_done<S: ArrivalSource>(&mut self, set: u32, source: &S) {
        let row = self.sets[set as usize];
        #[expect(
            clippy::expect_used,
            reason = "MigrationDone is scheduled only when a migration starts"
        )]
        let dest = row.dest().expect("migration exists");
        // If the destination died while the set was in flight and no
        // retarget arrived, fall back to the releasing owner (still the
        // policy's placement for the set — its diff saw the set as
        // already home, so inventing any other owner would contradict
        // the policy's map), then to the lowest-id alive server.
        #[expect(
            clippy::expect_used,
            reason = "a cluster with zero alive servers has no valid placement"
        )]
        let to = if self.servers[dest as usize].alive {
            dest
        } else {
            row.owner()
                .filter(|&s| self.servers[s as usize].alive)
                .unwrap_or_else(|| {
                    self.servers
                        .iter()
                        .position(|st| st.alive)
                        .expect("an alive server") as u32
                })
        };
        // Acquiring server starts with a cold cache.
        self.sets[set as usize] = SetRow {
            owner: to,
            dest: NO_SERVER,
            warmth: 0,
        };
        let buffered = std::mem::take(&mut self.buffered[set as usize]);
        self.tracer.emit(
            TraceLevel::Epoch,
            self.cal.now(),
            &TraceEvent::MigrationFinish {
                set: u64::from(set),
                to,
                buffered: buffered.len() as u64,
            },
        );
        for tag in buffered {
            self.enqueue(to, JobInfo { tag, set }, source.admitted(tag));
        }
        // If this set was orphaned by a failure, its landing may close
        // that failure's rebalance clock.
        if let Some(idx) = self.orphan_fault[set as usize].take() {
            let c = &mut self.rebalance_clocks[idx as usize];
            c.outstanding -= 1;
            if c.outstanding == 0 {
                self.rebalance_secs
                    .push(self.cal.now().since(c.start).as_secs_f64());
            }
        }
    }

    /// One autoscaler decision at the tick boundary, between report
    /// collection and the policy's own tuning pass, so the policy always
    /// plans against the post-scale membership. At most one commission or
    /// decommission per tick; the membership change flows through the
    /// same bring-up / take-down path scripted faults use, and the
    /// invariant auditor runs at the boundary.
    pub(super) fn autoscale<S: ArrivalSource>(
        &mut self,
        reports: &[LoadReport],
        policy: &mut dyn PlacementPolicy,
        source: &S,
    ) {
        if self.autoscaler.is_none() {
            return;
        }
        let standby = self.cfg.standby_ids();
        let standby_online: Vec<bool> = standby
            .iter()
            .map(|s| self.servers[s.0 as usize].alive)
            .collect();
        let live = self.servers.iter().filter(|st| st.alive).count();
        let mean = weighted_mean_latency(reports);
        let action = match self.autoscaler.as_mut() {
            Some(scaler) => scaler.decide(mean, &standby_online, live),
            None => None,
        };
        match action {
            Some(ScaleAction::Commission(slot)) => {
                self.bring_up(standby[slot].0, Cause::Scale, policy);
            }
            Some(ScaleAction::Decommission(slot)) => {
                self.take_down(standby[slot].0, Cause::Scale, policy, source);
            }
            None => return,
        }
        self.audit(&*policy);
    }

    /// Bring server `si` into the membership and let the policy rebalance
    /// toward it at the ordinary migration cost. A repair
    /// ([`Cause::Fault`]) closes the server's downtime window and restores
    /// its capacity. A commissioned standby ([`Cause::Scale`]) was never
    /// "down", so it opens no unavailability window and only counts a
    /// scale-up.
    fn bring_up(&mut self, si: u32, cause: Cause, policy: &mut dyn PlacementPolicy) {
        let now = self.cal.now();
        let server = ServerId(si);
        let st = &mut self.servers[si as usize];
        debug_assert!(!st.alive, "bring-up of alive {server}");
        st.alive = true;
        match cause {
            Cause::Fault => {
                if let Some(d) = st.down_since.take() {
                    self.unavailable_secs += now.since(d).as_secs_f64();
                }
                self.set_capacity(si, now, 1.0);
            }
            Cause::Scale => self.scale_ups += 1,
        }
        self.tracer.emit(
            TraceLevel::Epoch,
            now,
            &TraceEvent::Recover { server: server.0 },
        );
        let view = self.view();
        let planning = self.planning_assignment();
        let moves = match cause {
            Cause::Fault => policy.on_recover(&view, server, &planning),
            Cause::Scale => policy.on_commission(&view, server, &planning),
        };
        self.apply_moves(moves, self.cfg.migration.total(), policy.name());
    }

    /// Take server `si` out of the membership: drain its queue, let the
    /// policy re-home its file sets, and requeue the drained work behind
    /// them. A crash ([`Cause::Fault`]) also cancels a pending slowdown,
    /// opens a downtime window, loses the server's capacity, pays the
    /// failover delay and starts a rebalance clock. A retirement
    /// ([`Cause::Scale`]) re-homes exactly like a crash but pays the
    /// ordinary migration cost (there is nothing to detect) and counts a
    /// scale-down.
    fn take_down<S: ArrivalSource>(
        &mut self,
        si: u32,
        cause: Cause,
        policy: &mut dyn PlacementPolicy,
        source: &S,
    ) {
        let now = self.cal.now();
        let server = ServerId(si);
        let crash = cause == Cause::Fault;
        let st = &mut self.servers[si as usize];
        debug_assert!(st.alive, "take-down of dormant {server}");
        st.alive = false;
        let drained = st.station.drain(now);
        // The in-service job (if any) died with the server: its completion
        // event must not fire.
        if let Some(h) = st.completion.take() {
            self.cal.cancel(h);
        }
        if crash {
            // Likewise any pending slowdown end — the failure supersedes it.
            if let Some(h) = st.slow_end.take() {
                self.cal.cancel(h);
            }
            st.slow_factor = 1.0;
            st.down_since = Some(now);
            self.unavailability_windows += 1;
            self.set_capacity(si, now, 0.0);
        } else {
            // Faults never target standby servers (validate_faults), so no
            // slowdown or report fault can be pending here.
            debug_assert!(
                st.slow_end.is_none(),
                "slowdown pending on standby {server}"
            );
        }
        self.tracer.emit(
            TraceLevel::Epoch,
            now,
            &TraceEvent::Fault {
                server: server.0,
                drained: drained.len() as u64,
            },
        );
        let view = self.view();
        let planning = self.planning_assignment();
        let (moves, delay) = match cause {
            Cause::Fault => (policy.on_fail(&view, server, &planning), FAILOVER_DELAY),
            Cause::Scale => (
                policy.on_decommission(&view, server, &planning),
                self.cfg.migration.total(),
            ),
        };
        self.apply_moves(moves, delay, policy.name());
        // Every orphaned set must now be in flight; queued work follows
        // its set to the new owner. Dense index order keeps the scan in
        // sorted set order.
        let orphans: Vec<usize> = (0..self.sets.len())
            .filter(|&fi| self.sets[fi].owner == si)
            .collect();
        if crash && !orphans.is_empty() {
            let idx = self.rebalance_clocks.len() as u32;
            self.rebalance_clocks.push(RebalanceClock {
                start: now,
                outstanding: orphans.len(),
            });
            for &fi in &orphans {
                self.orphan_fault[fi] = Some(idx);
            }
        }
        for fi in orphans {
            assert!(
                self.sets[fi].dest().is_some(),
                "{} left orphan {} on {} {server}",
                policy.name(),
                FileSetId(fi as u64),
                if crash { "failed" } else { "decommissioned" }
            );
            self.sets[fi].owner = NO_SERVER;
        }
        self.requests_requeued += drained.len() as u64;
        for job in drained {
            // Most drained jobs belong to orphaned sets (now in flight); a
            // few may belong to sets that migrated away earlier but still
            // had queued work here. Either way the request keeps its
            // original arrival, and its new server re-costs it.
            let set = job.meta.set as usize;
            if self.sets[set].dest().is_some() {
                self.buffered[set].push(job.meta.tag);
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "take-down re-assigns every set before requeueing"
                )]
                let owner = self.sets[set]
                    .owner()
                    .expect("set is assigned or migrating");
                self.enqueue(owner, job.meta, source.admitted(job.meta.tag));
            }
        }
        if !crash {
            self.scale_downs += 1;
        }
    }

    /// The invariant auditor: runs at every tick, fault and scaling
    /// boundary while armed (a fault script or an autoscaler; no-op
    /// otherwise). Checks request conservation, that no file set is
    /// assigned to a dead server, that every file set is either assigned
    /// or in flight, and the policy's own placement invariants.
    /// Violations are counted and surfaced as `invariant` trace warnings
    /// instead of panicking mid-run.
    pub(super) fn audit(&mut self, policy: &dyn PlacementPolicy) {
        if !self.auditing {
            return;
        }
        self.audit_checks += 1;
        let mut violations: Vec<String> = Vec::new();
        let completed: u64 = self.servers.iter().map(|st| st.all.count()).sum();
        let queued: u64 = self
            .servers
            .iter()
            .map(|st| st.station.population() as u64)
            .sum();
        let buffered: u64 = self.buffered.iter().map(|b| b.len() as u64).sum();
        let admitted = self.admitted_requests();
        if completed + queued + buffered != admitted {
            violations.push(format!(
                "conservation: completed {completed} + queued {queued} + \
                 buffered {buffered} != admitted {admitted}"
            ));
        }
        // Index order is id order, so violation order (and the trace
        // bytes built from it) matches the map-keyed world.
        for (i, row) in self.sets.iter().enumerate() {
            if let Some(s) = row.owner() {
                if !self.servers[s as usize].alive {
                    violations.push(format!(
                        "{} assigned to dead {}",
                        FileSetId(i as u64),
                        ServerId(s)
                    ));
                }
            }
        }
        for (i, row) in self.sets.iter().enumerate() {
            if row.owner().is_none() && row.dest().is_none() {
                violations.push(format!(
                    "{} neither assigned nor migrating",
                    FileSetId(i as u64)
                ));
            }
        }
        let in_flight: Vec<FileSetId> = self
            .sets
            .iter()
            .enumerate()
            .filter_map(|(i, row)| row.dest().map(|_| FileSetId(i as u64)))
            .collect();
        violations.extend(policy.audit(&self.assignment_map(), &in_flight));
        if !violations.is_empty() {
            self.audit_violations += violations.len() as u64;
            let now = self.cal.now();
            for v in violations {
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::Warning {
                        code: WarnCode::Invariant,
                        detail: v,
                        count: 1,
                    },
                );
            }
        }
    }

    /// A limping server's slowdown lifts.
    pub(super) fn handle_slowdown_end(&mut self, server: u32) {
        let now = self.cal.now();
        let st = &mut self.servers[server as usize];
        st.slow_factor = 1.0;
        st.slow_end = None;
        self.set_capacity(server, now, 1.0);
    }

    /// The `i`-th scripted fault fires; the auditor then checks the
    /// boundary. Fault scripts are validated against the server set, so a
    /// fault's server id always indexes the server table.
    pub(super) fn handle_fault<S: ArrivalSource>(
        &mut self,
        i: u32,
        policy: &mut dyn PlacementPolicy,
        source: &S,
    ) {
        let now = self.cal.now();
        let cfg = self.cfg;
        match cfg.faults[i as usize] {
            FaultEvent::Fail { server, .. } => {
                self.take_down(server.0, Cause::Fault, policy, source);
            }
            FaultEvent::Recover { server, .. } => {
                self.bring_up(server.0, Cause::Fault, policy);
            }
            FaultEvent::Slowdown {
                server,
                factor,
                lasts,
                ..
            } => {
                let si = server.0;
                let st = &mut self.servers[si as usize];
                debug_assert!(st.alive, "slowdown of failed {server}");
                // A newer slowdown replaces a pending one outright.
                if let Some(h) = st.slow_end.take() {
                    self.cal.cancel(h);
                }
                st.slow_factor = factor;
                let until = now + lasts;
                let h = self.cal.schedule(until, Event::SlowdownEnd(si));
                self.servers[si as usize].slow_end = Some(h);
                self.set_capacity(si, now, 1.0 / factor);
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::Slowdown {
                        server: server.0,
                        factor,
                        until_us: until.0,
                    },
                );
            }
            FaultEvent::ReportLoss { server, .. } => {
                let st = &mut self.servers[server.0 as usize];
                debug_assert!(st.alive, "report fault on failed {server}");
                st.lose_report = true;
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::ReportFault {
                        server: server.0,
                        delayed: false,
                    },
                );
            }
            FaultEvent::ReportDelay { server, .. } => {
                let st = &mut self.servers[server.0 as usize];
                debug_assert!(st.alive, "report fault on failed {server}");
                st.delay_report = true;
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::ReportFault {
                        server: server.0,
                        delayed: true,
                    },
                );
            }
            FaultEvent::DelegateFail { pause_ticks, .. } => {
                policy.on_delegate_fail(pause_ticks);
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::DelegateFail { pause_ticks },
                );
            }
        }
        self.audit(&*policy);
    }
}
