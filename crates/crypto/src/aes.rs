//! Software AES-128 and AES-256 block encryption (FIPS-197).
//!
//! Secure memory systems in the RMCC paper use AES in counter mode: the
//! cipher is only ever run in the *encrypt* direction to produce one-time
//! pads (OTPs), so this module deliberately implements encryption only.
//! The simulator models AES *latency* architecturally (15 ns / 22 ns
//! knobs) and only needs functional AES for end-to-end correctness tests,
//! examples, and the NIST randomness checks — but that functional AES sits
//! on the simulation's hottest path (every pad of every access), so the
//! implementation is selectable per [`Backend`]:
//!
//! * [`Backend::Fast`] (the default) uses encryption T-tables: four
//!   256-entry `u32` tables that fuse `SubBytes`, `ShiftRows`, and
//!   `MixColumns` into one lookup + XOR per state byte per round (see
//!   DESIGN.md §10 for the equivalence argument). The tables are derived
//!   from the S-box once, at first key expansion, and shared by every
//!   schedule. Its data-dependent table access is the documented
//!   cache-timing tradeoff of any table-based software AES (DESIGN.md §8).
//! * [`Backend::Hardened`] runs the bitsliced constant-time circuit in
//!   the private `bitslice` module: 8 blocks per invocation through pure plane
//!   logic, no secret-indexed loads and no secret-dependent branches
//!   anywhere (key schedule included). Slower per block, immune to the
//!   cache-timing channel, and ~8× wider per call (see DESIGN.md §13).
//! * [`Backend::Reference`] is the textbook byte-wise FIPS-197 round
//!   sequence, kept as the independent oracle the other two are
//!   differentially tested against.
//!
//! All three produce bit-identical ciphertext — pinned by
//! `crates/crypto/tests/backend_differential.rs` against the NIST vectors
//! and property-generated inputs — so switching backends never changes
//! any golden fixture or checksum, only the timing profile.

/// The AES block size in bytes. AES has a fixed 128-bit block regardless of
/// key size (see §II-A of the paper: "AES has a fixed input and output size
/// of 128 bits").
pub const BLOCK_BYTES: usize = 16;

/// A 128-bit AES input/output block.
pub type Block = [u8; BLOCK_BYTES];

/// How many blocks the batched entry points process per call — the lane
/// width of the bitsliced backend.
pub const BATCH_BLOCKS: usize = 8;

/// AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule (shared with the bitsliced
/// backend, whose schedule must produce the same expansion).
pub(crate) const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply a byte by `x` (i.e. 2) in GF(2^8) modulo the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// S-box lookup.
///
/// A `u8` index into a 256-entry table cannot be out of range. The
/// data-dependent table access itself is the documented tradeoff of the
/// table-based backends (see DESIGN.md §8 under R3); the `hardened`
/// backend substitutes through a boolean circuit instead.
#[inline]
#[allow(clippy::indexing_slicing)]
pub(crate) fn sbox(b: u8) -> u8 {
    // audit:allow(R1, reason = "u8 index into a 256-entry table is total")
    SBOX[usize::from(b)]
}

/// The four encryption T-tables.
///
/// `te0[x]` packs the `MixColumns` image of `SubBytes(x)` as a big-endian
/// word `[2·s, s, s, 3·s]` (GF(2^8) products); `te1`–`te3` are byte
/// rotations of `te0`, so one table lookup per state byte performs the
/// fused `SubBytes` + `ShiftRows` + `MixColumns` contribution of that byte
/// to its output column.
struct TTables {
    te0: [u32; 256],
    te1: [u32; 256],
    te2: [u32; 256],
    te3: [u32; 256],
}

/// The tables are pure functions of the (public) S-box: computed once at
/// first key expansion, shared by all schedules forever after.
static TTABLES: std::sync::OnceLock<TTables> = std::sync::OnceLock::new();

fn build_ttables() -> TTables {
    let mut te0 = [0u32; 256];
    for (slot, x) in te0.iter_mut().zip(0u8..=255) {
        let s = sbox(x);
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        *slot = u32::from_be_bytes([s2, s, s, s3]);
    }
    TTables {
        te1: te0.map(|w| w.rotate_right(8)),
        te2: te0.map(|w| w.rotate_right(16)),
        te3: te0.map(|w| w.rotate_right(24)),
        te0,
    }
}

/// Total table lookup: a `u8` index into a 256-entry table cannot miss, so
/// the `unwrap_or` arm is unreachable (and branch-free after inlining).
#[inline]
fn lut(table: &[u32; 256], b: u8) -> u32 {
    table.get(usize::from(b)).copied().unwrap_or(0)
}

impl TTables {
    /// One output column of a middle round: the diagonal
    /// `(byte0 of a, byte1 of b, byte2 of c, byte3 of d)` is the column's
    /// post-`ShiftRows` content, and the table XOR applies `SubBytes` +
    /// `MixColumns` to it.
    #[inline]
    fn column(&self, a: u32, b: u32, c: u32, d: u32) -> u32 {
        let [a0, _, _, _] = a.to_be_bytes();
        let [_, b1, _, _] = b.to_be_bytes();
        let [_, _, c2, _] = c.to_be_bytes();
        let [_, _, _, d3] = d.to_be_bytes();
        lut(&self.te0, a0) ^ lut(&self.te1, b1) ^ lut(&self.te2, c2) ^ lut(&self.te3, d3)
    }
}

/// One output column of the final round: same diagonal byte selection as
/// [`TTables::column`], but `SubBytes` only (no `MixColumns`).
#[inline]
fn final_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    let [a0, _, _, _] = a.to_be_bytes();
    let [_, b1, _, _] = b.to_be_bytes();
    let [_, _, c2, _] = c.to_be_bytes();
    let [_, _, _, d3] = d.to_be_bytes();
    u32::from_be_bytes([sbox(a0), sbox(b1), sbox(c2), sbox(d3)])
}

/// Which AES variant a key schedule was expanded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesVariant {
    /// 128-bit key, 10 rounds. SGX's memory encryption engine uses AES-128.
    Aes128,
    /// 256-bit key, 14 rounds ("quantum safe" per §II-C of the paper).
    Aes256,
}

impl AesVariant {
    /// Number of sequential rounds the variant performs.
    ///
    /// The paper's latency argument hinges on these round counts: AES-128
    /// needs 10 serial rounds (modeled as 15 ns at 7 nm) and AES-256 needs 14
    /// (22 ns).
    pub fn rounds(self) -> usize {
        match self {
            AesVariant::Aes128 => 10,
            AesVariant::Aes256 => 14,
        }
    }

    /// Key length in bytes.
    pub fn key_bytes(self) -> usize {
        match self {
            AesVariant::Aes128 => 16,
            AesVariant::Aes256 => 32,
        }
    }
}

impl std::fmt::Display for AesVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AesVariant::Aes128 => write!(f, "AES-128"),
            AesVariant::Aes256 => write!(f, "AES-256"),
        }
    }
}

/// Which software implementation executes the AES rounds.
///
/// All backends are ciphertext-identical; they differ only in timing
/// profile and batch width. Selected per schedule at expansion time —
/// explicitly via the `*_on` constructors, or from the `RMCC_BACKEND`
/// environment variable via [`Backend::from_env`] (the path the engine
/// and service configuration plumb through).
///
/// # Examples
///
/// ```
/// use rmcc_crypto::aes::{Aes, Backend};
///
/// let fast = Aes::new_128_on(&[0u8; 16], Backend::Fast);
/// let hard = Aes::new_128_on(&[0u8; 16], Backend::Hardened);
/// assert_eq!(fast.encrypt_block([7u8; 16]), hard.encrypt_block([7u8; 16]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Byte-wise FIPS-197 reference rounds: the slow, obviously-correct
    /// oracle used for differential testing. S-box table lookups, not
    /// constant-time.
    Reference,
    /// Fused T-table rounds (the default): fastest scalar path, with the
    /// textbook data-dependent table access (DESIGN.md §8).
    #[default]
    Fast,
    /// Bitsliced constant-time circuit (the private `bitslice` module): 8 blocks
    /// per call, no secret-indexed loads or secret-dependent branches
    /// anywhere — the module carries zero `audit:allow(R5)` waivers.
    Hardened,
}

impl Backend {
    /// Parses a backend name as accepted in `RMCC_BACKEND`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" | "bytewise" => Some(Backend::Reference),
            "fast" | "ttable" => Some(Backend::Fast),
            "hardened" | "bitsliced" | "bitslice" | "ct" => Some(Backend::Hardened),
            _ => None,
        }
    }

    /// Reads `RMCC_BACKEND` (`fast` | `hardened` | `reference`), falling
    /// back to [`Backend::Fast`] when unset or unrecognized — backend
    /// choice never changes outputs, so a typo degrades timing, not
    /// correctness.
    pub fn from_env() -> Self {
        std::env::var("RMCC_BACKEND")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// The canonical lowercase name (`reference` / `fast` / `hardened`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Fast => "fast",
            Backend::Hardened => "hardened",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A key slice's length did not match the requested [`AesVariant`].
///
/// Returned by [`Aes::expand`]/[`Aes::expand_on`]; the array-taking
/// constructors ([`Aes::new_128`], [`Aes::new_256`]) make this state
/// unrepresentable and stay infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLengthError {
    /// The length in bytes the requested variant requires.
    pub expected: usize,
    /// The length actually supplied.
    pub got: usize,
}

impl std::fmt::Display for KeyLengthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "key length must match the AES variant: expected {} bytes, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for KeyLengthError {}

/// An expanded AES key, ready to encrypt blocks.
///
/// # Examples
///
/// ```
/// use rmcc_crypto::aes::Aes;
///
/// let key = Aes::new_128(&[0u8; 16]);
/// let ct = key.encrypt_block([0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Expanded round keys, packed as big-endian `u32` columns:
    /// `rounds + 1` keys of 4 words each. Empty for the hardened backend,
    /// which keeps its schedule pre-bitsliced in `sliced` instead (the
    /// table schedule's S-box lookups on key bytes would themselves be a
    /// timing leak).
    round_keys: Vec<[u32; 4]>,
    variant: AesVariant,
    backend: Backend,
    /// The shared encryption T-tables (built on first expansion).
    tables: &'static TTables,
    /// Bitsliced schedule; `Some` exactly when `backend` is `Hardened`.
    sliced: Option<crate::bitslice::Sliced>,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("Aes")
            .field("variant", &self.variant)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl Aes {
    /// Expands a 128-bit key on the environment-selected backend.
    pub fn new_128(key: &[u8; 16]) -> Self {
        // audit:allow(R5, reason = "array length is checked by the type; schedule leakage is accounted per backend in expand_checked")
        Self::new_128_on(key, Backend::from_env())
    }

    /// Expands a 128-bit key on an explicit backend.
    pub fn new_128_on(key: &[u8; 16], backend: Backend) -> Self {
        // audit:allow(R5, reason = "array length is checked by the type; schedule leakage is accounted per backend in expand_checked")
        Self::expand_checked(key, AesVariant::Aes128, backend)
    }

    /// Expands a 256-bit key on the environment-selected backend.
    pub fn new_256(key: &[u8; 32]) -> Self {
        // audit:allow(R5, reason = "array length is checked by the type; schedule leakage is accounted per backend in expand_checked")
        Self::new_256_on(key, Backend::from_env())
    }

    /// Expands a 256-bit key on an explicit backend.
    pub fn new_256_on(key: &[u8; 32], backend: Backend) -> Self {
        // audit:allow(R5, reason = "array length is checked by the type; schedule leakage is accounted per backend in expand_checked")
        Self::expand_checked(key, AesVariant::Aes256, backend)
    }

    /// Expands a key slice for `variant` on the environment-selected
    /// backend, returning [`KeyLengthError`] on a length mismatch.
    pub fn expand(key: &[u8], variant: AesVariant) -> Result<Self, KeyLengthError> {
        // audit:allow(R5, reason = "length-checked dispatch into the per-backend schedule")
        Self::expand_on(key, variant, Backend::from_env())
    }

    /// Expands a key slice for `variant` on an explicit backend, returning
    /// [`KeyLengthError`] on a length mismatch.
    pub fn expand_on(
        key: &[u8],
        variant: AesVariant,
        backend: Backend,
    ) -> Result<Self, KeyLengthError> {
        let got = key.len();
        let expected = variant.key_bytes();
        // audit:allow(R5, reason = "branches on the key slice's length only — public metadata, not key bytes")
        if got != expected {
            return Err(KeyLengthError { expected, got });
        }
        // audit:allow(R5, reason = "length verified above; schedule leakage is accounted per backend in expand_checked")
        Ok(Self::expand_checked(key, variant, backend))
    }

    /// Expands a key of already-verified length on `backend`.
    ///
    /// The hardened backend expands entirely through the bitsliced
    /// circuit (constant-time `SubWord`); the table backends run the
    /// classic S-box schedule.
    // audit:allow(R5, scope = fn, reason = "the S-box key schedule feeds only the table backends, whose data-dependent lookups are the documented tradeoff; the hardened arm expands through the waiver-free bitsliced circuit")
    fn expand_checked(key: &[u8], variant: AesVariant, backend: Backend) -> Self {
        let tables = TTABLES.get_or_init(build_ttables);
        let (round_keys, sliced) = match backend {
            Backend::Hardened => (
                Vec::new(),
                Some(crate::bitslice::Sliced::expand(key, variant)),
            ),
            _ => (Self::schedule_words(key, variant), None),
        };
        Aes {
            round_keys,
            variant,
            backend,
            tables,
            sliced,
        }
    }

    /// The classic FIPS-197 key schedule via S-box lookups, producing
    /// big-endian `u32` round-key columns.
    fn schedule_words(key: &[u8], variant: AesVariant) -> Vec<[u32; 4]> {
        let nk = variant.key_bytes() / 4; // key length in 32-bit words
        let nr = variant.rounds();
        let total_words = 4 * (nr + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        w.extend(key.chunks_exact(4).map(|c| {
            let mut word = [0u8; 4];
            word.copy_from_slice(c);
            word
        }));
        for i in nk..total_words {
            // `w` holds exactly `i` words here, so the previous word is
            // `last()` and the word `nk` back is at `i - nk`.
            let mut temp = w.last().copied().unwrap_or_default();
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = sbox(*b);
                }
                if let (Some(first), Some(rc)) = (temp.first_mut(), RCON.get(i / nk - 1)) {
                    *first ^= rc;
                }
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = sbox(*b);
                }
            }
            let mut word = w.get(i - nk).copied().unwrap_or_default();
            for (wb, tb) in word.iter_mut().zip(temp.iter()) {
                *wb ^= tb;
            }
            w.push(word);
        }
        w.chunks_exact(4)
            .map(|c| {
                let mut rk = [0u32; 4];
                for (dst, src) in rk.iter_mut().zip(c.iter()) {
                    *dst = u32::from_be_bytes(*src);
                }
                rk
            })
            .collect()
    }

    /// The variant this key schedule was expanded for.
    pub fn variant(&self) -> AesVariant {
        self.variant
    }

    /// The backend this key schedule was expanded on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Encrypts one 128-bit block on the schedule's backend.
    ///
    /// The hardened backend runs one live lane of its 8-wide circuit
    /// (full-batch cost — constant-time code does not get cheaper for
    /// smaller inputs); use [`Aes::encrypt_batch8`] to amortize.
    pub fn encrypt_block(&self, input: Block) -> Block {
        if let Some(ct) = self.sliced.as_ref() {
            return ct.encrypt_one(input);
        }
        match self.backend {
            Backend::Reference => self.encrypt_block_reference(input),
            _ => self.encrypt_block_ttable(input),
        }
    }

    /// Encrypts 8 blocks in one call.
    ///
    /// On the hardened backend all 8 ride the bitsliced circuit together
    /// (one circuit evaluation total); the table backends encrypt them
    /// sequentially. Outputs are identical across backends either way.
    pub fn encrypt_batch8(&self, inputs: [Block; BATCH_BLOCKS]) -> [Block; BATCH_BLOCKS] {
        if let Some(ct) = self.sliced.as_ref() {
            return ct.encrypt8(&inputs);
        }
        inputs.map(|b| self.encrypt_block(b))
    }

    /// [`Aes::encrypt_batch8`] over `u128` values (big-endian byte order),
    /// the form the OTP pipeline consumes.
    pub fn encrypt_u128_batch8(&self, inputs: [u128; BATCH_BLOCKS]) -> [u128; BATCH_BLOCKS] {
        self.encrypt_batch8(inputs.map(u128::to_be_bytes))
            .map(u128::from_be_bytes)
    }

    /// Encrypts a slice of blocks in place, batching through the 8-wide
    /// path in groups (a trailing partial group still costs one full
    /// circuit evaluation on the hardened backend).
    pub fn encrypt_blocks(&self, io: &mut [Block]) {
        if let Some(ct) = self.sliced.as_ref() {
            for chunk in io.chunks_mut(BATCH_BLOCKS) {
                ct.encrypt_upto8(chunk);
            }
            return;
        }
        for block in io.iter_mut() {
            *block = self.encrypt_block(*block);
        }
    }

    /// T-table rounds: the state lives in four big-endian `u32` columns;
    /// each middle round is 16 T-table lookups and 16 XORs, the final
    /// round substitutes through the S-box only (see the module docs and
    /// DESIGN.md §10).
    // audit:allow(R5, scope = fn, reason = "T-table rounds index tables by state bytes by design; the constant-time alternative is the hardened backend (DESIGN.md §13)")
    fn encrypt_block_ttable(&self, input: Block) -> Block {
        let [p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15] = input;
        let mut s0 = u32::from_be_bytes([p0, p1, p2, p3]);
        let mut s1 = u32::from_be_bytes([p4, p5, p6, p7]);
        let mut s2 = u32::from_be_bytes([p8, p9, p10, p11]);
        let mut s3 = u32::from_be_bytes([p12, p13, p14, p15]);
        // `round_keys` holds `rounds + 1` keys: the whitening key, one key
        // per middle round, and the final-round key. Destructuring keeps
        // the round structure explicit without any index arithmetic.
        // audit:allow(R3, reason = "slice pattern branches on schedule length (always rounds + 1), never on key bytes")
        if let [first, middle @ .., last] = self.round_keys.as_slice() {
            let [k0, k1, k2, k3] = *first;
            s0 ^= k0;
            s1 ^= k1;
            s2 ^= k2;
            s3 ^= k3;
            for rk in middle {
                let [k0, k1, k2, k3] = *rk;
                let t0 = self.tables.column(s0, s1, s2, s3) ^ k0;
                let t1 = self.tables.column(s1, s2, s3, s0) ^ k1;
                let t2 = self.tables.column(s2, s3, s0, s1) ^ k2;
                let t3 = self.tables.column(s3, s0, s1, s2) ^ k3;
                s0 = t0;
                s1 = t1;
                s2 = t2;
                s3 = t3;
            }
            let [k0, k1, k2, k3] = *last;
            let t0 = final_column(s0, s1, s2, s3) ^ k0;
            let t1 = final_column(s1, s2, s3, s0) ^ k1;
            let t2 = final_column(s2, s3, s0, s1) ^ k2;
            let t3 = final_column(s3, s0, s1, s2) ^ k3;
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }
        let [o0, o1, o2, o3] = s0.to_be_bytes();
        let [o4, o5, o6, o7] = s1.to_be_bytes();
        let [o8, o9, o10, o11] = s2.to_be_bytes();
        let [o12, o13, o14, o15] = s3.to_be_bytes();
        [
            o0, o1, o2, o3, o4, o5, o6, o7, o8, o9, o10, o11, o12, o13, o14, o15,
        ]
    }

    /// Byte-wise FIPS-197 reference rounds: the textbook
    /// `SubBytes`/`ShiftRows`/`MixColumns` sequence, kept as the
    /// independent oracle the T-table and bitsliced paths are
    /// differentially tested against.
    // audit:allow(R5, scope = fn, reason = "reference oracle substitutes through the table S-box by design; the constant-time path is the hardened backend")
    fn encrypt_block_reference(&self, input: Block) -> Block {
        let mut state = input;
        let last_round = self.round_keys.len().saturating_sub(1);
        for (i, rk) in self.round_keys.iter().enumerate() {
            let mut bytes = [0u8; 16];
            let [k0, k1, k2, k3] = *rk;
            for (dst, word) in bytes.chunks_exact_mut(4).zip([k0, k1, k2, k3]) {
                dst.copy_from_slice(&word.to_be_bytes());
            }
            if i > 0 {
                ref_sub_bytes(&mut state);
                ref_shift_rows(&mut state);
                if i < last_round {
                    ref_mix_columns(&mut state);
                }
            }
            ref_add_round_key(&mut state, &bytes);
        }
        state
    }

    /// Encrypts a 128-bit value given as a `u128` (big-endian byte order).
    ///
    /// Convenience for the OTP pipeline, which manipulates pads as `u128`.
    pub fn encrypt_u128(&self, input: u128) -> u128 {
        u128::from_be_bytes(self.encrypt_block(input.to_be_bytes()))
    }
}

/// Reference-path `AddRoundKey`.
fn ref_add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

/// Reference-path `SubBytes` (table S-box; see [`Aes::encrypt_block_reference`]).
fn ref_sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = sbox(*b);
    }
}

/// Reference-path `ShiftRows`. FIPS-197 state is column-major: byte
/// `state[r + 4c]` sits at row `r`, column `c`; `ShiftRows` rotates row
/// `r` left by `r`, and each rotation is a swap chain.
fn ref_shift_rows(state: &mut Block) {
    // Row 1: left rotate by 1.
    state.swap(1, 5);
    state.swap(5, 9);
    state.swap(9, 13);
    // Row 2: left rotate by 2 (two swaps).
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: left rotate by 3 (= right rotate by 1).
    state.swap(3, 7);
    state.swap(3, 11);
    state.swap(3, 15);
}

/// Reference-path `MixColumns`.
fn ref_mix_columns(state: &mut Block) {
    for col in state.chunks_exact_mut(4) {
        if let [a, b, c, d] = *col {
            let t = a ^ b ^ c ^ d;
            col.copy_from_slice(&[
                a ^ t ^ xtime(a ^ b),
                b ^ t ^ xtime(b ^ c),
                c ^ t ^ xtime(c ^ d),
                d ^ t ^ xtime(d ^ a),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [Backend; 3] = [Backend::Reference, Backend::Fast, Backend::Hardened];

    /// All three backends must agree with each other across many
    /// pseudo-random keys and blocks, for both variants (the
    /// cross-backend harness in `tests/backend_differential.rs` extends
    /// this with NIST vectors and property-generated batches).
    #[test]
    fn backends_agree_on_random_inputs() {
        let mut z = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        for _ in 0..64 {
            let key128: [u8; 16] = core::array::from_fn(|_| next() as u8);
            let key256: [u8; 32] = core::array::from_fn(|_| next() as u8);
            let block: Block = core::array::from_fn(|_| next() as u8);
            let [r, f, h] = BACKENDS.map(|b| Aes::new_128_on(&key128, b).encrypt_block(block));
            assert_eq!(r, f, "AES-128 reference vs fast");
            assert_eq!(f, h, "AES-128 fast vs hardened");
            let [r, f, h] = BACKENDS.map(|b| Aes::new_256_on(&key256, b).encrypt_block(block));
            assert_eq!(r, f, "AES-256 reference vs fast");
            assert_eq!(f, h, "AES-256 fast vs hardened");
        }
    }

    /// FIPS-197 Appendix B / C.1: AES-128, on every backend.
    #[test]
    fn fips197_aes128_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        for backend in BACKENDS {
            assert_eq!(
                Aes::new_128_on(&key, backend).encrypt_block(pt),
                expect,
                "backend {backend}"
            );
        }
    }

    /// FIPS-197 Appendix C.1: sequential-byte key and plaintext.
    #[test]
    fn fips197_aes128_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes::new_128(&key).encrypt_block(pt), expect);
    }

    /// FIPS-197 Appendix C.3: AES-256, on every backend.
    #[test]
    fn fips197_aes256_appendix_c3() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        for backend in BACKENDS {
            assert_eq!(
                Aes::new_256_on(&key, backend).encrypt_block(pt),
                expect,
                "backend {backend}"
            );
        }
    }

    /// NIST SP 800-38A F.1.1 ECB-AES128 vector (first block).
    #[test]
    fn sp800_38a_ecb_aes128() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expect = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        assert_eq!(Aes::new_128(&key).encrypt_block(pt), expect);
    }

    #[test]
    fn rounds_and_key_sizes() {
        assert_eq!(AesVariant::Aes128.rounds(), 10);
        assert_eq!(AesVariant::Aes256.rounds(), 14);
        assert_eq!(AesVariant::Aes128.key_bytes(), 16);
        assert_eq!(AesVariant::Aes256.key_bytes(), 32);
    }

    #[test]
    fn u128_roundtrip_matches_block_form() {
        let aes = Aes::new_128(&[7u8; 16]);
        let x = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        assert_eq!(
            aes.encrypt_u128(x).to_be_bytes(),
            aes.encrypt_block(x.to_be_bytes())
        );
    }

    #[test]
    fn batch8_matches_scalar_on_every_backend() {
        for backend in BACKENDS {
            let aes = Aes::new_128_on(&[0x42u8; 16], backend);
            let inputs: [Block; 8] = core::array::from_fn(|lane| [lane as u8; 16]);
            let batch = aes.encrypt_batch8(inputs);
            for (lane, (got, input)) in batch.iter().zip(inputs.iter()).enumerate() {
                assert_eq!(
                    *got,
                    aes.encrypt_block(*input),
                    "backend {backend} lane {lane}"
                );
            }
            let u128s: [u128; 8] = core::array::from_fn(|lane| (lane as u128) << 96 | 0xdead);
            let ubatch = aes.encrypt_u128_batch8(u128s);
            for (got, input) in ubatch.iter().zip(u128s.iter()) {
                assert_eq!(*got, aes.encrypt_u128(*input), "backend {backend} (u128)");
            }
        }
    }

    #[test]
    fn encrypt_blocks_matches_scalar_for_ragged_lengths() {
        for backend in BACKENDS {
            let aes = Aes::new_256_on(&[0x17u8; 32], backend);
            for n in [0usize, 1, 7, 8, 9, 16, 23] {
                let mut io: Vec<Block> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 31 + j) as u8))
                    .collect();
                let expect: Vec<Block> = io.iter().map(|b| aes.encrypt_block(*b)).collect();
                aes.encrypt_blocks(&mut io);
                assert_eq!(io, expect, "backend {backend} length {n}");
            }
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes::new_128(&[0u8; 16]);
        let b = Aes::new_128(&[1u8; 16]);
        assert_ne!(a.encrypt_block([0u8; 16]), b.encrypt_block([0u8; 16]));
    }

    /// A wrong-length key slice is a typed error, not a panic, for both
    /// variants and in both directions (too short and too long).
    #[test]
    fn wrong_key_length_is_a_typed_error() {
        for (len, variant, expected) in [
            (17usize, AesVariant::Aes128, 16usize),
            (15, AesVariant::Aes128, 16),
            (0, AesVariant::Aes128, 16),
            (16, AesVariant::Aes256, 32),
            (33, AesVariant::Aes256, 32),
        ] {
            let key = vec![0u8; len];
            let err = Aes::expand(&key, variant).unwrap_err();
            assert_eq!(err, KeyLengthError { expected, got: len });
            let msg = err.to_string();
            assert!(msg.contains("key length"), "message: {msg}");
            assert!(msg.contains(&expected.to_string()), "message: {msg}");
            for backend in BACKENDS {
                assert_eq!(
                    Aes::expand_on(&key, variant, backend).unwrap_err(),
                    KeyLengthError { expected, got: len },
                    "backend {backend}"
                );
            }
        }
    }

    /// A correct-length slice expands fine through the fallible path.
    #[test]
    fn correct_key_length_expands_via_the_fallible_path() {
        let aes = Aes::expand(&[0u8; 16], AesVariant::Aes128).unwrap();
        assert_eq!(
            aes.encrypt_block([0u8; 16]),
            Aes::new_128(&[0u8; 16]).encrypt_block([0u8; 16])
        );
    }

    #[test]
    fn backend_parse_and_env_default() {
        assert_eq!(Backend::parse("fast"), Some(Backend::Fast));
        assert_eq!(Backend::parse("TTable"), Some(Backend::Fast));
        assert_eq!(Backend::parse("hardened"), Some(Backend::Hardened));
        assert_eq!(Backend::parse("bitsliced"), Some(Backend::Hardened));
        assert_eq!(Backend::parse(" reference "), Some(Backend::Reference));
        assert_eq!(Backend::parse("mystery"), None);
        assert_eq!(Backend::default(), Backend::Fast);
        assert_eq!(Backend::Hardened.name(), "hardened");
        assert_eq!(format!("{}", Backend::Fast), "fast");
    }

    #[test]
    fn debug_does_not_print_key_material() {
        for backend in BACKENDS {
            let aes = Aes::new_128_on(&[0x42u8; 16], backend);
            let s = format!("{aes:?}");
            assert!(s.contains("Aes128"));
            assert!(!s.contains("66")); // 0x42 = 66; round keys absent
            assert!(!s.contains("round_keys"));
        }
    }
}
