//! Expense metering across VM, serverless, and storage services.
//!
//! The paper's evaluation metric (§4) is the combined expense of all VM
//! nodes, all serverless functions, and the S3 bucket maintained during
//! execution. [`CostMeter`] accumulates these as the simulation runs and
//! renders an [`Expense`] breakdown at the end.

use serde::{Deserialize, Serialize};

const SECS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

/// Final expense breakdown in dollars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Expense {
    /// VM node time.
    pub vm_dollars: f64,
    /// Serverless function time.
    pub faas_dollars: f64,
    /// Object storage: byte-time plus requests.
    pub storage_dollars: f64,
}

impl Expense {
    /// Total expense.
    pub fn total(&self) -> f64 {
        self.vm_dollars + self.faas_dollars + self.storage_dollars
    }
}

/// The expense accumulator of one run. A world owns exactly one, and every
/// service charges it in simulation order.
#[derive(Debug, Clone, Default)]
pub struct CostMeter {
    vm_node_seconds_dollars: f64,
    faas_function_seconds_dollars: f64,
    storage_byte_seconds: f64,
    storage_request_dollars: f64,
}

impl CostMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `node_seconds` of VM time at `price_per_hour`.
    pub fn charge_vm(&mut self, node_seconds: f64, price_per_hour: f64) {
        debug_assert!(node_seconds >= 0.0);
        self.vm_node_seconds_dollars += node_seconds / 3600.0 * price_per_hour;
    }

    /// Charges `function_seconds` of serverless time at `price_per_hour`.
    pub fn charge_faas(&mut self, function_seconds: f64, price_per_hour: f64) {
        debug_assert!(function_seconds >= 0.0);
        self.faas_function_seconds_dollars += function_seconds / 3600.0 * price_per_hour;
    }

    /// Charges storage occupancy: `bytes` held for `seconds`.
    pub fn charge_storage_occupancy(&mut self, bytes: f64, seconds: f64) {
        debug_assert!(bytes >= 0.0 && seconds >= 0.0);
        self.storage_byte_seconds += bytes * seconds;
    }

    /// Charges `n` storage requests at `price_each`.
    pub fn charge_storage_requests(&mut self, n: u64, price_each: f64) {
        self.storage_request_dollars += n as f64 * price_each;
    }

    /// Renders the expense breakdown; `price_per_gb_month` converts the
    /// accumulated byte-seconds.
    pub fn expense(&self, price_per_gb_month: f64) -> Expense {
        let gb_months = self.storage_byte_seconds / 1e9 / SECS_PER_MONTH;
        Expense {
            vm_dollars: self.vm_node_seconds_dollars,
            faas_dollars: self.faas_function_seconds_dollars,
            storage_dollars: gb_months * price_per_gb_month + self.storage_request_dollars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_and_faas_charging() {
        let mut m = CostMeter::new();
        // 10 nodes for one hour at $0.12.
        m.charge_vm(10.0 * 3600.0, 0.12);
        // 100 function-seconds at $0.12/hr.
        m.charge_faas(100.0, 0.12);
        let e = m.expense(0.023);
        assert!((e.vm_dollars - 1.2).abs() < 1e-12);
        assert!((e.faas_dollars - 100.0 / 3600.0 * 0.12).abs() < 1e-12);
        assert_eq!(e.storage_dollars, 0.0);
    }

    #[test]
    fn storage_charging() {
        let mut m = CostMeter::new();
        // 1 GB held for a month.
        m.charge_storage_occupancy(1e9, SECS_PER_MONTH);
        m.charge_storage_requests(1000, 5e-6);
        let e = m.expense(0.023);
        assert!((e.storage_dollars - (0.023 + 0.005)).abs() < 1e-12);
    }

    #[test]
    fn total_sums_components() {
        let e = Expense {
            vm_dollars: 1.0,
            faas_dollars: 2.0,
            storage_dollars: 3.0,
        };
        assert_eq!(e.total(), 6.0);
    }
}
