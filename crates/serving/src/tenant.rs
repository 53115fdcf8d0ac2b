//! Per-tenant resource accounting and fair-share configuration.
//!
//! The service meters concurrent work per tenant through a [`FixedQuota`]
//! (the dfut-style `can_execute(requirements, available)` pattern reduced
//! to charge/release over one resource axis: in-flight output rows).
//! A request's cost is its row count — a subgraph request costs its target
//! count, a vertex request costs 1 — so quotas bound *work*, not request
//! count. Admission charges a request's row count against its
//! tenant before queueing it and releases the charge when the response
//! (or rejection) is delivered, so a tenant flooding the queue runs out
//! of quota instead of starving everyone else. Dispatch-side fairness is
//! separate: the queue drains tenants by deficit round-robin weighted by
//! [`TenantSpec::weight`] (see `queue`).
//!
//! NOTE: the charge/release methods are called from the hot admission path
//! (L009 closure) — they must not allocate or panic in steady state.

use crate::request::TenantId;

/// One fixed in-flight row quota per tenant, tracked in a dense
/// per-tenant table.
#[derive(Debug, Clone)]
pub struct FixedQuota {
    limits: Vec<u64>,
    in_flight: Vec<u64>,
}

impl FixedQuota {
    /// Same quota for every tenant.
    pub fn uniform(tenants: usize, limit: u64) -> Self {
        FixedQuota {
            limits: vec![limit; tenants],
            in_flight: vec![0; tenants],
        }
    }

    /// Per-tenant quotas (tenant `i` gets `limits[i]`).
    pub fn per_tenant(limits: Vec<u64>) -> Self {
        let n = limits.len();
        FixedQuota {
            limits,
            in_flight: vec![0; n],
        }
    }

    /// Try to reserve `units` for `tenant`. Returns `false` (and charges
    /// nothing) if the reservation would exceed the tenant's quota.
    pub(crate) fn try_charge(&mut self, tenant: TenantId, units: u64) -> bool {
        let t = tenant as usize;
        let (Some(used), Some(&limit)) = (self.in_flight.get_mut(t), self.limits.get(t)) else {
            return false;
        };
        if used.saturating_add(units) > limit {
            return false;
        }
        *used += units;
        true
    }

    /// Return `units` previously charged to `tenant`.
    pub(crate) fn release(&mut self, tenant: TenantId, units: u64) {
        if let Some(used) = self.in_flight.get_mut(tenant as usize) {
            *used = used.saturating_sub(units);
        }
    }

    /// Units currently charged to `tenant`.
    pub(crate) fn in_flight(&self, tenant: TenantId) -> u64 {
        self.in_flight.get(tenant as usize).copied().unwrap_or(0)
    }

    /// The quota `try_charge` enforces for `tenant` (for rejections).
    pub(crate) fn limit(&self, tenant: TenantId) -> u64 {
        self.limits.get(tenant as usize).copied().unwrap_or(0)
    }
}

/// One tenant's scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Deficit round-robin weight: per scheduling pass, a tenant may
    /// dispatch up to `weight` requests before the cursor moves on.
    /// Zero is clamped to 1.
    pub weight: u32,
    /// In-flight output-row quota enforced by the service's [`FixedQuota`].
    pub quota_rows: u64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            quota_rows: u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_charges_and_releases() {
        let mut q = FixedQuota::uniform(2, 10);
        assert!(q.try_charge(0, 6));
        assert!(q.try_charge(0, 4));
        assert!(!q.try_charge(0, 1), "tenant 0 is at its quota");
        assert!(q.try_charge(1, 10), "tenant 1 is unaffected");
        q.release(0, 4);
        assert_eq!(q.in_flight(0), 6);
        assert!(q.try_charge(0, 4));
    }

    #[test]
    fn unknown_tenants_never_admit() {
        let mut q = FixedQuota::uniform(1, 10);
        assert!(!q.try_charge(7, 1));
        q.release(7, 1); // no-op, must not panic
        assert_eq!(q.in_flight(7), 0);
        assert_eq!(q.limit(7), 0);
    }

    #[test]
    fn release_saturates_at_zero() {
        let mut q = FixedQuota::per_tenant(vec![5]);
        q.release(0, 100);
        assert_eq!(q.in_flight(0), 0);
        assert!(q.try_charge(0, 5));
    }

    #[test]
    fn overflowing_charge_is_rejected_not_wrapped() {
        let mut q = FixedQuota::uniform(1, u64::MAX - 1);
        assert!(q.try_charge(0, u64::MAX - 1));
        assert!(!q.try_charge(0, u64::MAX), "saturating add must not wrap");
    }
}
