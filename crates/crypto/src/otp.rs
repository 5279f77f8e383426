//! One-time-pad (OTP) construction for counter-mode secure memory.
//!
//! Two OTP pipelines are provided, matching the paper:
//!
//! * [`SgxOtp`] — the baseline (Figure 2): a single AES invocation takes
//!   *both* the block's address and its write counter, so nothing can start
//!   until the counter is known.
//! * [`RmccOtp`] — RMCC's split pipeline (Figure 11): one AES depends only on
//!   the counter (`AES_k(0^72 ‖ ctr)`), another only on the address
//!   (`AES_k'(addr ‖ 0^64)`), and a truncated carry-less multiplication
//!   combines them. The counter-only half is what the memoization table
//!   stores; the address-only half is computed while DRAM is busy.
//!
//! Both pipelines derive **different pads for encryption and for MAC
//! generation** by using distinct AES keys, as SGX does (paper Figure 11
//! caption).

use std::cell::RefCell;

use crate::aes::{Aes, Backend, BATCH_BLOCKS};
use crate::clmul::clmul_truncate_mid;

/// Number of 128-bit words in a 64-byte memory block.
pub const WORDS_PER_BLOCK: usize = 4;

/// Width of a write counter in bits (SGX counters are 56-bit, §II-A).
pub const COUNTER_BITS: u32 = 56;

/// Maximum representable counter value (2^56 - 1).
pub const COUNTER_MAX: u64 = (1 << COUNTER_BITS) - 1;

/// What a pad will be used for. Encryption and MAC pads must differ for the
/// same (address, counter) pair, so each purpose uses its own AES key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadPurpose {
    /// Pad XORed with plaintext/ciphertext.
    Encryption,
    /// Pad XORed with the GF dot product to form the MAC.
    Mac,
}

/// The set of AES keys a memory controller holds.
///
/// # Examples
///
/// ```
/// use rmcc_crypto::otp::KeySet;
///
/// let keys = KeySet::from_master(0xfeed_beef);
/// // Deterministic: the same master seed derives the same keys.
/// assert_eq!(
///     KeySet::from_master(0xfeed_beef).encryption().encrypt_u128(1),
///     keys.encryption().encrypt_u128(1),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct KeySet {
    /// Key for encryption pads (baseline) / counter-only AES (RMCC).
    enc: Aes,
    /// Key for MAC pads (baseline) / counter-only MAC AES (RMCC).
    mac: Aes,
    /// RMCC address-only AES key for encryption pads.
    addr_enc: Aes,
    /// RMCC address-only AES key for MAC pads.
    addr_mac: Aes,
}

impl KeySet {
    /// Derives four independent AES-128 keys from a master seed.
    ///
    /// Real hardware would use a DRBG seeded at boot; deriving via AES of
    /// distinct constants gives the same independence for simulation.
    pub fn from_master(master: u64) -> Self {
        Self::from_master_with(master, crate::aes::AesVariant::Aes128)
    }

    /// Derives the key set for a chosen AES variant. The paper's §VI
    /// sensitivity study models the "quantum safe" AES-256 (14 rounds,
    /// 22 ns); this constructor makes the functional engine match.
    ///
    /// The AES backend comes from `RMCC_BACKEND` ([`Backend::from_env`]);
    /// use [`KeySet::from_master_on`] to pin one explicitly.
    pub fn from_master_with(master: u64, variant: crate::aes::AesVariant) -> Self {
        Self::from_master_on(master, variant, Backend::from_env())
    }

    /// Derives the key set for a chosen AES variant on an explicit
    /// backend. Backends are ciphertext-identical, so the derived keys —
    /// and every pad ever produced from them — are bit-identical across
    /// backends; only the timing profile changes.
    pub fn from_master_on(master: u64, variant: crate::aes::AesVariant, backend: Backend) -> Self {
        let mut mk = [0u8; 16];
        let (mk_lo, mk_hi) = mk.split_at_mut(8);
        mk_lo.copy_from_slice(&master.to_be_bytes());
        mk_hi.copy_from_slice(&(!master).to_be_bytes());
        let root = Aes::new_128_on(&mk, backend);
        let derive = |label: u128| {
            let lo = root.encrypt_u128(label);
            match variant {
                crate::aes::AesVariant::Aes128 => Aes::new_128_on(&lo.to_be_bytes(), backend),
                crate::aes::AesVariant::Aes256 => {
                    let hi = root.encrypt_u128(label | 1 << 64);
                    let mut key = [0u8; 32];
                    let (key_lo, key_hi) = key.split_at_mut(16);
                    key_lo.copy_from_slice(&lo.to_be_bytes());
                    key_hi.copy_from_slice(&hi.to_be_bytes());
                    Aes::new_256_on(&key, backend)
                }
            }
        };
        KeySet {
            enc: derive(1),
            mac: derive(2),
            addr_enc: derive(3),
            addr_mac: derive(4),
        }
    }

    /// The AES variant the keys were expanded for.
    pub fn variant(&self) -> crate::aes::AesVariant {
        self.enc.variant()
    }

    /// The AES backend the keys were expanded on.
    pub fn backend(&self) -> Backend {
        self.enc.backend()
    }

    /// The encryption-pad key (counter-only key under RMCC).
    pub fn encryption(&self) -> &Aes {
        &self.enc
    }

    /// The MAC-pad key (counter-only MAC key under RMCC).
    pub fn mac(&self) -> &Aes {
        &self.mac
    }

    /// RMCC's address-only key for the given purpose.
    pub fn address_only(&self, purpose: PadPurpose) -> &Aes {
        match purpose {
            PadPurpose::Encryption => &self.addr_enc,
            PadPurpose::Mac => &self.addr_mac,
        }
    }

    /// The counter-only key for the given purpose (also the baseline key).
    pub fn counter_only(&self, purpose: PadPurpose) -> &Aes {
        match purpose {
            PadPurpose::Encryption => &self.enc,
            PadPurpose::Mac => &self.mac,
        }
    }
}

/// The pads needed to process one 64-byte block: four 128-bit encryption
/// pads (one per word) and one MAC pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockPads {
    /// One pad per 128-bit word of the data block.
    pub words: [u128; WORDS_PER_BLOCK],
    /// Pad folded into the MAC computation.
    pub mac: u128,
}

/// An OTP construction: anything that can turn `(address, counter)` into the
/// pads for a block.
///
/// The trait is object-safe so simulators can switch pipelines at runtime.
pub trait OtpPipeline: Send {
    /// Computes all pads for the 64-byte block at `block_addr` (a *block*
    /// address, i.e. byte address / 64) with write counter `ctr`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ctr` exceeds [`COUNTER_MAX`].
    fn block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads;

    /// Computes only the MAC pad: exactly `block_pads(block_addr, ctr).mac`.
    ///
    /// Integrity-tree verification authenticates node images without ever
    /// decrypting them, so it needs none of the data-word pads. The default
    /// derives the full block and discards the words; implementations
    /// override it with the narrow pipeline so tree walks do not pay
    /// [`WORDS_PER_BLOCK`] wasted pad derivations per node.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ctr` exceeds [`COUNTER_MAX`].
    fn mac_pad(&self, block_addr: u64, ctr: u64) -> u128 {
        // audit:allow(R5, reason = "counters are public metadata (stored in plaintext in the tree); deriving pads from (addr, ctr) is the pipeline contract")
        self.block_pads(block_addr, ctr).mac
    }

    /// Hints that the pads for these `(block_addr, ctr)` requests are
    /// about to be asked for, letting the pipeline derive them through a
    /// batched AES path ahead of time. Purely a wall-clock accelerator:
    /// subsequent [`OtpPipeline::block_pads`]/[`OtpPipeline::mac_pad`]
    /// calls return bit-identical values whether or not this ran, and the
    /// caller's modeled crypto accounting is charged at request time
    /// either way. The default is a no-op (the baseline pipeline has no
    /// batch path and no memo to warm).
    ///
    /// It pays off only where the batch is one circuit evaluation
    /// ([`Backend::batches_lanes`](crate::aes::Backend::batches_lanes)):
    /// on the table backends a group with one memo miss costs eight
    /// scalar derivations, so callers skip it there.
    fn warm_pads(&self, reqs: &[(u64, u64)]) {
        let _ = reqs;
    }
}

/// Packs the baseline AES input: `µ ‖ address ‖ word_index ‖ counter`
/// (Figure 2a: 8b + 56b + 8b + 56b = 128b).
fn sgx_tweak(block_addr: u64, word_index: u8, ctr: u64) -> u128 {
    debug_assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
    let mu = 0x5au128; // fixed domain-separation byte, as in the MEE
    (mu << 120)
        | ((block_addr as u128 & ((1 << 56) - 1)) << 64)
        | ((word_index as u128) << 56)
        | (ctr as u128 & ((1 << 56) - 1))
}

/// Baseline SGX-style pipeline: one AES per pad, taking address *and*
/// counter together.
///
/// # Examples
///
/// ```
/// use rmcc_crypto::otp::{KeySet, OtpPipeline, SgxOtp};
///
/// let pipe = SgxOtp::new(KeySet::from_master(1));
/// let pads = pipe.block_pads(0x1000, 7);
/// // Different counters give completely different pads for the same block.
/// assert_ne!(pads, pipe.block_pads(0x1000, 8));
/// ```
#[derive(Clone)]
pub struct SgxOtp {
    keys: KeySet,
}

impl std::fmt::Debug for SgxOtp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never expose the key set through Debug output.
        f.debug_struct("SgxOtp").finish_non_exhaustive()
    }
}

impl SgxOtp {
    /// Creates the baseline pipeline over `keys`.
    pub fn new(keys: KeySet) -> Self {
        SgxOtp { keys }
    }
}

impl OtpPipeline for SgxOtp {
    fn block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        let mut words = [0u128; WORDS_PER_BLOCK];
        for (i, w) in (0u8..).zip(words.iter_mut()) {
            *w = self.keys.enc.encrypt_u128(sgx_tweak(block_addr, i, ctr));
        }
        let mac = self.keys.mac.encrypt_u128(sgx_tweak(block_addr, 0xff, ctr));
        BlockPads { words, mac }
    }

    fn mac_pad(&self, block_addr: u64, ctr: u64) -> u128 {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        self.keys.mac.encrypt_u128(sgx_tweak(block_addr, 0xff, ctr))
    }
}

/// Packs the address-only AES input for one 128-bit word of a block:
/// µ1 ‖ µ2 ‖ addr_56(word-granular) ‖ 0^64 — the word index is folded into
/// the low bits of the 56-bit address field, since each 128-bit word of a
/// block has its own address (Figure 2 / §II-A).
fn addr_input(block_addr: u64, word_index: u8) -> u128 {
    let word_addr = ((block_addr << 2) | word_index as u64) & ((1 << 56) - 1);
    let mu = 0xa5_00u128; // µ1 ‖ µ2 domain separation
    (mu << 112) | ((word_addr as u128) << 64)
}

/// Number of slots in each way of the transparent pad memo (power of two).
const MEMO_SLOTS: usize = 1 << 14;

/// Direct-mapped slot index for `(block_addr, ctr)`: a multiplicative mix,
/// taking the top bits so nearby addresses and counters spread apart.
fn memo_index(block_addr: u64, ctr: u64) -> usize {
    let mixed = (block_addr ^ ctr.rotate_left(29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    usize::try_from(mixed >> 50).unwrap_or(0)
}

/// One direct-mapped entry of the full-block pad memo. `ctr == u64::MAX`
/// marks an empty slot — write counters are 56-bit, so no real key collides
/// with the sentinel.
#[derive(Clone, Copy)]
struct PadSlot {
    addr: u64,
    ctr: u64,
    pads: BlockPads,
}

/// One direct-mapped entry of the MAC-pad-only memo.
#[derive(Clone, Copy)]
struct MacSlot {
    addr: u64,
    ctr: u64,
    mac: u128,
}

/// The pipeline's transparent memoization state — the paper's titular trick
/// applied to the reproduction's own wall clock. Both ways live in the same
/// trust domain as the [`KeySet`]: pads are secret material and never leave
/// the modeled memory controller.
#[derive(Clone)]
struct PadMemo {
    blocks: Vec<PadSlot>,
    macs: Vec<MacSlot>,
}

impl PadMemo {
    fn new() -> Self {
        PadMemo {
            blocks: vec![
                PadSlot {
                    addr: 0,
                    ctr: u64::MAX,
                    pads: BlockPads::default(),
                };
                MEMO_SLOTS
            ],
            macs: vec![
                MacSlot {
                    addr: 0,
                    ctr: u64::MAX,
                    mac: 0,
                };
                MEMO_SLOTS
            ],
        }
    }
}

/// RMCC's split pipeline (Figure 11).
///
/// The two AES halves use asymmetric zero padding — the counter is
/// *prefixed* with 72 zero bits while the address is *suffixed* with 64 zero
/// bits — which eliminates the commutativity repeat class (§IV-D1: the OTP
/// for (addr = x, ctr = y) must differ from (addr = y, ctr = x)).
///
/// The pipeline also memoizes its own outputs: a small direct-mapped cache
/// keyed by `(address, counter)` short-circuits repeat derivations, exactly
/// the self-reinforcing effect the paper builds the architecture around.
/// The memo is *transparent* — hits return bit-identical pads, and the
/// engine's modeled crypto tally is charged per request either way — so it
/// only changes host wall clock, never results or accounting.
#[derive(Clone)]
pub struct RmccOtp {
    keys: KeySet,
    memo: RefCell<PadMemo>,
}

impl std::fmt::Debug for RmccOtp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never expose the key set through Debug output.
        f.debug_struct("RmccOtp").finish_non_exhaustive()
    }
}

impl RmccOtp {
    /// Creates the split pipeline over `keys`.
    pub fn new(keys: KeySet) -> Self {
        RmccOtp {
            keys,
            memo: RefCell::new(PadMemo::new()),
        }
    }

    /// The full derivation, bypassing the memo (also the miss path).
    fn derive_block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads {
        let ctr_enc = self.counter_only(ctr, PadPurpose::Encryption);
        let ctr_mac = self.counter_only(ctr, PadPurpose::Mac);
        let mut words = [0u128; WORDS_PER_BLOCK];
        for (i, w) in (0u8..).zip(words.iter_mut()) {
            *w = Self::combine(
                ctr_enc,
                self.address_only(block_addr, i, PadPurpose::Encryption),
            );
        }
        let mac = Self::combine(ctr_mac, self.address_only(block_addr, 0, PadPurpose::Mac));
        BlockPads { words, mac }
    }

    /// The counter-only AES result for `ctr` — exactly the value RMCC's
    /// memoization table stores per purpose (16 B for decryption + 16 B for
    /// verification per entry, §IV-E).
    ///
    /// # Panics
    ///
    /// Panics if `ctr` exceeds [`COUNTER_MAX`].
    pub fn counter_only(&self, ctr: u64, purpose: PadPurpose) -> u128 {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        // 0^72 ‖ ctr_56 (Figure 11 left input).
        self.keys.counter_only(purpose).encrypt_u128(ctr as u128)
    }

    /// The address-only AES result for one 128-bit word of a block.
    ///
    /// Address-only results are always fast to produce because the MC knows
    /// the address as soon as the request arrives (§IV).
    pub fn address_only(&self, block_addr: u64, word_index: u8, purpose: PadPurpose) -> u128 {
        self.keys
            .address_only(purpose)
            .encrypt_u128(addr_input(block_addr, word_index))
    }

    /// Derives full block pads for up to [`BATCH_BLOCKS`] `(block_addr,
    /// ctr)` requests at once, driving each AES key's 8-wide batch entry
    /// point so the hardened backend runs one circuit evaluation per key
    /// per word instead of one per lane.
    ///
    /// Lane `i` of the result corresponds to `reqs[i]` and is
    /// bit-identical to `block_pads(reqs[i].0, reqs[i].1)`; lanes past
    /// `reqs.len()` are derived for the all-zero request and must be
    /// discarded by the caller. The memo is neither consulted nor
    /// updated — this is the raw derivation ([`RmccOtp::warm_pads`] layers
    /// the memo on top).
    ///
    /// # Panics
    ///
    /// Panics if any counter exceeds [`COUNTER_MAX`].
    pub fn block_pads_batch8(&self, reqs: &[(u64, u64)]) -> [BlockPads; BATCH_BLOCKS] {
        let mut lanes = [(0u64, 0u64); BATCH_BLOCKS];
        for (slot, req) in lanes.iter_mut().zip(reqs.iter()) {
            assert!(req.1 <= COUNTER_MAX, "counter overflows 56 bits");
            *slot = *req;
        }
        // 0^72 ‖ ctr_56 per lane (Figure 11 left input), through both
        // counter keys.
        let ctr_in = lanes.map(|(_, ctr)| ctr as u128);
        let ctr_enc = self.keys.enc.encrypt_u128_batch8(ctr_in);
        let ctr_mac = self.keys.mac.encrypt_u128_batch8(ctr_in);
        // Address-only halves: one 8-wide batch per word index, plus one
        // for the MAC (which uses word 0 under the MAC address key).
        let addr_in = |w: u8| lanes.map(|(addr, _)| addr_input(addr, w));
        let ae0 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(0));
        let ae1 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(1));
        let ae2 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(2));
        let ae3 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(3));
        let am = self.keys.addr_mac.encrypt_u128_batch8(addr_in(0));
        let mut out = [BlockPads::default(); BATCH_BLOCKS];
        let halves = ctr_enc
            .into_iter()
            .zip(ctr_mac)
            .zip(ae0)
            .zip(ae1)
            .zip(ae2)
            .zip(ae3)
            .zip(am);
        for (pads, ((((((ce, cm), a0), a1), a2), a3), amac)) in out.iter_mut().zip(halves) {
            pads.words = [
                Self::combine(ce, a0),
                Self::combine(ce, a1),
                Self::combine(ce, a2),
                Self::combine(ce, a3),
            ];
            pads.mac = Self::combine(cm, amac);
        }
        out
    }

    /// Narrow batched form of [`OtpPipeline::mac_pad`]: MAC pads only, for
    /// up to [`BATCH_BLOCKS`] requests, bit-identical lane-for-lane to the
    /// scalar call. Same lane convention as [`RmccOtp::block_pads_batch8`].
    ///
    /// # Panics
    ///
    /// Panics if any counter exceeds [`COUNTER_MAX`].
    pub fn mac_pads_batch8(&self, reqs: &[(u64, u64)]) -> [u128; BATCH_BLOCKS] {
        let mut lanes = [(0u64, 0u64); BATCH_BLOCKS];
        for (slot, req) in lanes.iter_mut().zip(reqs.iter()) {
            assert!(req.1 <= COUNTER_MAX, "counter overflows 56 bits");
            *slot = *req;
        }
        let ctr_mac = self
            .keys
            .mac
            .encrypt_u128_batch8(lanes.map(|(_, ctr)| ctr as u128));
        let am = self
            .keys
            .addr_mac
            .encrypt_u128_batch8(lanes.map(|(addr, _)| addr_input(addr, 0)));
        let mut out = [0u128; BATCH_BLOCKS];
        for (pad, (cm, amac)) in out.iter_mut().zip(ctr_mac.into_iter().zip(am)) {
            *pad = Self::combine(cm, amac);
        }
        out
    }

    /// Combines a counter-only and an address-only AES result into the final
    /// pad: `truncate_mid(clmul(counter_only, address_only))`.
    pub fn combine(counter_only: u128, address_only: u128) -> u128 {
        clmul_truncate_mid(counter_only, address_only)
    }

    /// Full pad for a single word, going through the split pipeline.
    pub fn word_pad(&self, block_addr: u64, word_index: u8, ctr: u64, purpose: PadPurpose) -> u128 {
        Self::combine(
            self.counter_only(ctr, purpose),
            self.address_only(block_addr, word_index, purpose),
        )
    }
}

impl OtpPipeline for RmccOtp {
    // audit:allow(R5, scope = fn, reason = "memo slots are addressed by (block_addr, ctr), both public metadata; the hit/miss pattern is the paper's architecturally visible memoization")
    fn block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads {
        let idx = memo_index(block_addr, ctr);
        // `try_borrow_mut` instead of `borrow_mut`: the memo is a pure
        // accelerator, so on the (impossible today) reentrant path we just
        // derive without it rather than risk a panic in a trusted crate.
        let Ok(mut memo) = self.memo.try_borrow_mut() else {
            return self.derive_block_pads(block_addr, ctr);
        };
        if let Some(slot) = memo.blocks.get(idx) {
            if slot.addr == block_addr && slot.ctr == ctr {
                return slot.pads;
            }
        }
        let pads = self.derive_block_pads(block_addr, ctr);
        if let Some(slot) = memo.blocks.get_mut(idx) {
            *slot = PadSlot {
                addr: block_addr,
                ctr,
                pads,
            };
        }
        pads
    }

    // audit:allow(R5, scope = fn, reason = "memo slots are addressed by (block_addr, ctr), both public metadata; the hit/miss pattern is the paper's architecturally visible memoization")
    fn mac_pad(&self, block_addr: u64, ctr: u64) -> u128 {
        let idx = memo_index(block_addr, ctr);
        let Ok(mut memo) = self.memo.try_borrow_mut() else {
            return Self::combine(
                self.counter_only(ctr, PadPurpose::Mac),
                self.address_only(block_addr, 0, PadPurpose::Mac),
            );
        };
        if let Some(slot) = memo.macs.get(idx) {
            if slot.addr == block_addr && slot.ctr == ctr {
                return slot.mac;
            }
        }
        let mac = Self::combine(
            self.counter_only(ctr, PadPurpose::Mac),
            self.address_only(block_addr, 0, PadPurpose::Mac),
        );
        if let Some(slot) = memo.macs.get_mut(idx) {
            *slot = MacSlot {
                addr: block_addr,
                ctr,
                mac,
            };
        }
        mac
    }

    /// Warms the transparent memo through the 8-wide batch derivation:
    /// requests already memoized are skipped, the rest are derived in
    /// [`BATCH_BLOCKS`]-lane groups and inserted into both the block-pad
    /// and MAC-pad ways. Correctness-neutral by construction — hits serve
    /// bit-identical pads, and evictions only cost a re-derivation later.
    // audit:allow(R5, scope = fn, reason = "memo slots are addressed by (block_addr, ctr), both public metadata; the hit/miss pattern is the paper's architecturally visible memoization")
    fn warm_pads(&self, reqs: &[(u64, u64)]) {
        let Ok(mut memo) = self.memo.try_borrow_mut() else {
            return;
        };
        for group in reqs.chunks(BATCH_BLOCKS) {
            // Collect the lanes not already memoized (duplicate requests
            // within a group derive twice and overwrite — harmless).
            let mut missing = [(0u64, 0u64); BATCH_BLOCKS];
            let mut n = 0usize;
            for (addr, ctr) in group {
                let idx = memo_index(*addr, *ctr);
                let hit = memo
                    .blocks
                    .get(idx)
                    .is_some_and(|s| s.addr == *addr && s.ctr == *ctr);
                if !hit {
                    if let Some(slot) = missing.get_mut(n) {
                        *slot = (*addr, *ctr);
                        n += 1;
                    }
                }
            }
            let Some(live) = missing.get(..n) else {
                continue;
            };
            if live.is_empty() {
                continue;
            }
            let derived = self.block_pads_batch8(live);
            for ((addr, ctr), pads) in live.iter().zip(derived.iter()) {
                let idx = memo_index(*addr, *ctr);
                if let Some(slot) = memo.blocks.get_mut(idx) {
                    *slot = PadSlot {
                        addr: *addr,
                        ctr: *ctr,
                        pads: *pads,
                    };
                }
                if let Some(slot) = memo.macs.get_mut(idx) {
                    *slot = MacSlot {
                        addr: *addr,
                        ctr: *ctr,
                        mac: pads.mac,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> KeySet {
        KeySet::from_master(0x1234_5678)
    }

    #[test]
    fn sgx_pads_vary_with_counter_and_address() {
        let p = SgxOtp::new(keys());
        let a = p.block_pads(10, 1);
        assert_ne!(a, p.block_pads(10, 2), "counter must change pads");
        assert_ne!(a, p.block_pads(11, 1), "address must change pads");
    }

    #[test]
    fn sgx_word_pads_differ_within_a_block() {
        let p = SgxOtp::new(keys());
        let pads = p.block_pads(42, 3);
        for i in 0..WORDS_PER_BLOCK {
            for j in (i + 1)..WORDS_PER_BLOCK {
                assert_ne!(pads.words[i], pads.words[j]);
            }
        }
    }

    #[test]
    fn mac_pad_differs_from_encryption_pads() {
        for pads in [
            SgxOtp::new(keys()).block_pads(42, 3),
            RmccOtp::new(keys()).block_pads(42, 3),
        ] {
            for w in pads.words {
                assert_ne!(w, pads.mac);
            }
        }
    }

    #[test]
    fn rmcc_pads_vary_with_counter_and_address() {
        let p = RmccOtp::new(keys());
        let a = p.block_pads(10, 1);
        assert_ne!(a, p.block_pads(10, 2));
        assert_ne!(a, p.block_pads(11, 1));
    }

    #[test]
    fn rmcc_swap_of_address_and_counter_does_not_repeat() {
        // §IV-D1 type-A repeats: OTP(addr=x, ctr=y) vs OTP(addr=y, ctr=x).
        let p = RmccOtp::new(keys());
        let x = 6u64;
        let y = 20u64;
        assert_ne!(
            p.word_pad(x, 0, y, PadPurpose::Encryption),
            p.word_pad(y, 0, x, PadPurpose::Encryption)
        );
    }

    #[test]
    fn rmcc_combine_matches_block_pads() {
        let p = RmccOtp::new(keys());
        let pads = p.block_pads(77, 9);
        for i in 0..WORDS_PER_BLOCK {
            assert_eq!(
                pads.words[i],
                p.word_pad(77, i as u8, 9, PadPurpose::Encryption)
            );
        }
    }

    #[test]
    fn mac_pad_matches_full_block_pads() {
        // The narrow verification pipeline must be bit-identical to the MAC
        // pad of the full derivation, for every pipeline, across addresses
        // and counters — otherwise tree walks and writes would disagree.
        let pipes: [Box<dyn OtpPipeline>; 2] = [
            Box::new(SgxOtp::new(keys())),
            Box::new(RmccOtp::new(keys())),
        ];
        for (i, p) in pipes.iter().enumerate() {
            for (addr, ctr) in [(0u64, 0u64), (77, 9), (1 << 40, 12345), (3, COUNTER_MAX)] {
                assert_eq!(
                    p.mac_pad(addr, ctr),
                    p.block_pads(addr, ctr).mac,
                    "pipeline {i} diverged at addr={addr} ctr={ctr}"
                );
            }
        }
    }

    #[test]
    fn counter_only_is_address_independent() {
        // This independence is the entire point: one memoized value serves
        // every block in memory.
        let p = RmccOtp::new(keys());
        let c = p.counter_only(12345, PadPurpose::Encryption);
        for addr in [0u64, 1, 0xffff, 1 << 40] {
            let pad = RmccOtp::combine(c, p.address_only(addr, 0, PadPurpose::Encryption));
            assert_eq!(pad, p.word_pad(addr, 0, 12345, PadPurpose::Encryption));
        }
    }

    #[test]
    #[should_panic(expected = "counter overflows")]
    fn counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.counter_only(COUNTER_MAX + 1, PadPurpose::Encryption);
    }

    #[test]
    fn aes256_keyset_roundtrips_and_differs() {
        use crate::aes::AesVariant;
        let k128 = KeySet::from_master_with(9, AesVariant::Aes128);
        let k256 = KeySet::from_master_with(9, AesVariant::Aes256);
        assert_eq!(k128.variant(), AesVariant::Aes128);
        assert_eq!(k256.variant(), AesVariant::Aes256);
        let p128 = RmccOtp::new(k128);
        let p256 = RmccOtp::new(k256);
        assert_ne!(
            p128.block_pads(10, 1),
            p256.block_pads(10, 1),
            "variants must produce different pads"
        );
        // Deterministic per variant.
        let again = RmccOtp::new(KeySet::from_master_with(9, AesVariant::Aes256));
        assert_eq!(p256.block_pads(10, 1), again.block_pads(10, 1));
    }

    /// The batch derivation must be bit-identical, lane for lane, to the
    /// scalar path — for full and partial batches, on both the fast and
    /// hardened backends, and across backends.
    #[test]
    fn block_pads_batch8_matches_scalar_on_both_backends() {
        use crate::aes::AesVariant;
        let reqs: Vec<(u64, u64)> = vec![
            (0, 0),
            (77, 9),
            (1 << 40, 12345),
            (3, COUNTER_MAX),
            (500, 1),
            (500, 2),
            (501, 1),
            (0xdead_beef, 42),
        ];
        let fast = RmccOtp::new(KeySet::from_master_on(
            0x1234_5678,
            AesVariant::Aes128,
            Backend::Fast,
        ));
        let hard = RmccOtp::new(KeySet::from_master_on(
            0x1234_5678,
            AesVariant::Aes128,
            Backend::Hardened,
        ));
        for n in 1..=reqs.len() {
            let group = &reqs[..n];
            let batch_fast = fast.block_pads_batch8(group);
            let batch_hard = hard.block_pads_batch8(group);
            for (lane, (addr, ctr)) in group.iter().enumerate() {
                let scalar = fast.block_pads(*addr, *ctr);
                assert_eq!(batch_fast[lane], scalar, "fast lane {lane} of {n}");
                assert_eq!(batch_hard[lane], scalar, "hardened lane {lane} of {n}");
            }
        }
    }

    #[test]
    fn mac_pads_batch8_matches_scalar() {
        let p = RmccOtp::new(keys());
        let reqs = [(0u64, 0u64), (77, 9), (1 << 40, 12345), (3, COUNTER_MAX)];
        let batch = p.mac_pads_batch8(&reqs);
        for (lane, (addr, ctr)) in reqs.iter().enumerate() {
            assert_eq!(batch[lane], p.mac_pad(*addr, *ctr), "lane {lane}");
        }
    }

    /// Warming the memo must not change anything observable: pads served
    /// after a warm are bit-identical to a cold pipeline's.
    #[test]
    fn warm_pads_is_correctness_neutral() {
        let warmed = RmccOtp::new(keys());
        let cold = RmccOtp::new(keys());
        let reqs: Vec<(u64, u64)> = (0..23).map(|i| (i * 37 % 11, i)).collect();
        warmed.warm_pads(&reqs);
        // Warming twice (all hits the second time) is also a no-op.
        warmed.warm_pads(&reqs);
        for (addr, ctr) in &reqs {
            assert_eq!(
                warmed.block_pads(*addr, *ctr),
                cold.block_pads(*addr, *ctr),
                "block pads diverged at addr={addr} ctr={ctr}"
            );
            assert_eq!(
                warmed.mac_pad(*addr, *ctr),
                cold.mac_pad(*addr, *ctr),
                "mac pad diverged at addr={addr} ctr={ctr}"
            );
        }
        // The default trait impl is a no-op and must also be harmless.
        let sgx = SgxOtp::new(keys());
        sgx.warm_pads(&reqs);
        assert_eq!(sgx.block_pads(1, 1), SgxOtp::new(keys()).block_pads(1, 1));
    }

    #[test]
    #[should_panic(expected = "counter overflows")]
    fn batch_counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.block_pads_batch8(&[(1, COUNTER_MAX + 1)]);
    }

    #[test]
    fn keyset_reports_its_backend() {
        use crate::aes::AesVariant;
        let k = KeySet::from_master_on(5, AesVariant::Aes128, Backend::Hardened);
        assert_eq!(k.backend(), Backend::Hardened);
        assert_eq!(KeySet::from_master(5).backend(), Backend::from_env());
    }

    #[test]
    fn pipelines_are_object_safe() {
        let pipes: Vec<Box<dyn OtpPipeline>> = vec![
            Box::new(SgxOtp::new(keys())),
            Box::new(RmccOtp::new(keys())),
        ];
        // Each trait object dispatches to its own derivation.
        assert_eq!(
            pipes[0].block_pads(77, 9),
            SgxOtp::new(keys()).block_pads(77, 9)
        );
        assert_eq!(
            pipes[1].block_pads(77, 9),
            RmccOtp::new(keys()).block_pads(77, 9)
        );
        assert_ne!(pipes[0].block_pads(77, 9), pipes[1].block_pads(77, 9));
    }
}
