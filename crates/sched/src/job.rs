//! Scheduler job descriptions.

use pddl_ddlsim::Workload;

/// Identifier of a job within one queue.
pub type JobId = usize;

/// A training job submitted to the scheduler.
#[derive(Clone, Debug)]
pub struct SchedJob {
    pub id: JobId,
    pub workload: Workload,
    /// Arrival time (seconds since simulation start).
    pub submit_time: f64,
    /// Optional completion deadline (absolute time).
    pub deadline: Option<f64>,
    /// Minimum servers the job accepts.
    pub min_servers: usize,
    /// Maximum servers the job can use.
    pub max_servers: usize,
}

impl SchedJob {
    pub fn new(id: JobId, workload: Workload, submit_time: f64) -> Self {
        Self { id, workload, submit_time, deadline: None, min_servers: 1, max_servers: 16 }
    }

    pub fn with_deadline(mut self, deadline: f64) -> Self {
        assert!(deadline > self.submit_time, "deadline before submission");
        self.deadline = Some(deadline);
        self
    }

    pub fn with_server_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "invalid server range");
        self.min_servers = min;
        self.max_servers = max;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let j = SchedJob::new(1, Workload::standard("resnet18", "cifar10"), 10.0)
            .with_deadline(100.0)
            .with_server_range(2, 8);
        assert_eq!(j.deadline, Some(100.0));
        assert_eq!((j.min_servers, j.max_servers), (2, 8));
    }

    #[test]
    #[should_panic(expected = "deadline before submission")]
    fn rejects_past_deadline() {
        let _ = SchedJob::new(1, Workload::standard("resnet18", "cifar10"), 10.0)
            .with_deadline(5.0);
    }

    #[test]
    #[should_panic(expected = "invalid server range")]
    fn rejects_inverted_range() {
        let _ = SchedJob::new(1, Workload::standard("resnet18", "cifar10"), 0.0)
            .with_server_range(8, 2);
    }
}
