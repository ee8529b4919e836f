//! Checked-in outputs. The default seed's values were recorded at the
//! commit that introduced this benchmark; the seed-independent ones hold
//! for every seed.

use crate::campaign::{CampaignExpected, Counts};
use crate::flow::FlowExpected;

/// The seed whose content-dependent outputs are checked in.
pub const DEFAULT_SEED: u64 = 1;

pub struct Expected {
    pub flow: FlowExpected,
    pub campaign: CampaignExpected,
    /// Digests of the 1080p outputs at the default seed: (frame, dag).
    pub engine_digests: (u64, u64),
}

pub fn igf() -> Expected {
    Expected {
        flow: FlowExpected {
            arch: (5, 3, 4),
            default_format: (18, 10),
            default_luts: 68164,
            vector_words: 2000,
            default_seed: ((15, 10), 56297),
        },
        campaign: CampaignExpected {
            instructions: 71,
            faults: 213,
            default_seed: [
                Counts {
                    instructions: 71,
                    faults: 213,
                    detected: 139,
                    masked: 55,
                    silent: 19,
                    predicted_silent: 3,
                    triaged: 139,
                },
                Counts {
                    instructions: 71,
                    faults: 213,
                    detected: 149,
                    masked: 45,
                    silent: 19,
                    predicted_silent: 3,
                    triaged: 149,
                },
                Counts {
                    instructions: 71,
                    faults: 213,
                    detected: 79,
                    masked: 115,
                    silent: 19,
                    predicted_silent: 3,
                    triaged: 79,
                },
                Counts {
                    instructions: 71,
                    faults: 213,
                    detected: 153,
                    masked: 41,
                    silent: 19,
                    predicted_silent: 3,
                    triaged: 153,
                },
            ],
        },
        engine_digests: (0x4e0d2e4fa23b0f0a, 0x76ef5f41f7ccba45),
    }
}

pub fn chambolle() -> Expected {
    Expected {
        flow: FlowExpected {
            arch: (5, 1, 4),
            default_format: (18, 10),
            default_luts: 286772,
            vector_words: 10000,
            default_seed: ((18, 11), 284125),
        },
        campaign: CampaignExpected {
            instructions: 129,
            faults: 387,
            default_seed: [
                Counts {
                    instructions: 129,
                    faults: 387,
                    detected: 306,
                    masked: 78,
                    silent: 3,
                    predicted_silent: 3,
                    triaged: 306,
                },
                Counts {
                    instructions: 129,
                    faults: 387,
                    detected: 303,
                    masked: 81,
                    silent: 3,
                    predicted_silent: 3,
                    triaged: 303,
                },
                Counts {
                    instructions: 129,
                    faults: 387,
                    detected: 294,
                    masked: 90,
                    silent: 3,
                    predicted_silent: 3,
                    triaged: 294,
                },
                Counts {
                    instructions: 129,
                    faults: 387,
                    detected: 312,
                    masked: 72,
                    silent: 3,
                    predicted_silent: 3,
                    triaged: 312,
                },
            ],
        },
        engine_digests: (0x6f4b9e4f684384e4, 0x6f4b9e4f684384e4),
    }
}
