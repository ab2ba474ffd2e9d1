/*
 * C kernel: the closure and enumeration loops of bsp._kernel_py on 64-bit
 * bitsets, d <= 6.
 *
 * Plain C99 with no Python API.  bsp/_kernel_c.py loads the compiled
 * library through ctypes, checks every argument before it gets here, and
 * turns the results into the values bsp._kernel_py returns.  Callers own
 * every output buffer.
 *
 * The design is the one described in the docstring of bsp/_kernel_py.py:
 * a set is closed on its greedy basis B, with the matrix M (B and the
 * completing unit vectors), w(y) = D times the coordinates of a point y
 * in the rows of M, and per-point bitsets over the 2^r patterns sigma,
 * ok[y] (t(y, sigma) in {0, D}) and one[y] (t(y, sigma) = D).  The
 * valid patterns are the AND of ok over the set, the closure is the span
 * points y with ok[y] & valid == valid, and the rows come from one.
 * close_set walks the points of the set in ascending order from M = I,
 * D = 1, and extend, a transcription of bsp.linalg.extend, puts each one
 * outside the span into M by the exact-division update that keeps D =
 * +-det(M).  The tables are rebuilt on every call rather than cached.
 *
 * All values are minors of 0/1 matrices of order <= 6 and their sums,
 * far inside int64.
 */

#include <stdint.h>
#include <string.h>

#define MAXD 6
#define MAXP 64                 /* 2^MAXD cube points */
#define FORM_WORDS (2 + MAXP)   /* form record: header, rows, mask */

typedef struct {
    int rank;
    int64_t den;                /* D */
    uint64_t valid;             /* bit sigma: sigma is a valid pattern */
    uint64_t closed;
    uint64_t one[MAXP];         /* bit sigma of one[y]: t(y, sigma) = D */
} closure_t;

static int lowest_bit(uint64_t x)
{
    int i = 0;
    while (!((x >> i) & 1))
        i++;
    return i;
}

/* Puts point y in place of the first unit row k >= r of M with
   phi_k(y) != 0 and moves that row to r, keeping phi_i(m_j) = D [i = j]:
   phi_i <- (phi_k(y) phi_i - phi_i(y) phi_k) / D for i != k (an exact
   division, as D = +-det(M) before and after), D <- phi_k(y).  Returns 0,
   changing nothing, when y is in the span of the first r rows. */
static int extend(int d, int r, int y, int64_t phi[MAXD][MAXD], int64_t *den)
{
    int64_t v[MAXD], fk[MAXD];
    int k = -1;
    for (int i = 0; i < d; i++) {
        v[i] = 0;
        for (int j = 0; j < d; j++)
            if ((y >> j) & 1)
                v[i] += phi[i][j];
        if (k < 0 && i >= r && v[i] != 0)
            k = i;
    }
    if (k < 0)
        return 0;
    memcpy(fk, phi[k], sizeof fk);
    for (int i = 0; i < d; i++) {
        if (i == k)
            continue;
        for (int j = 0; j < d; j++)
            phi[i][j] = (v[k] * phi[i][j] - v[i] * fk[j]) / *den;
    }
    memmove(phi[r + 1], phi[r], (k - r) * sizeof phi[r]);
    memcpy(phi[r], fk, sizeof fk);
    *den = v[k];
    return 1;
}

static void close_set(int d, uint64_t sset, closure_t *c)
{
    int64_t phi[MAXD][MAXD] = {{0}};  /* from M = I, D = 1 */
    int r = 0;

    for (int i = 0; i < d; i++)
        phi[i][i] = 1;
    c->den = 1;
    sset &= ~(uint64_t)1;
    for (int y = 1; y < (1 << d) && r < d; y++)
        if ((sset >> y) & 1)
            r += extend(d, r, y, phi, &c->den);
    c->rank = r;

    int nsig = 1 << r;
    uint64_t all = nsig == 64 ? ~(uint64_t)0 : ((uint64_t)1 << nsig) - 1;
    uint64_t ok[MAXP];          /* bit sigma: t(y, sigma) in {0, D} */
    int64_t w[MAXP][MAXD];
    uint64_t span = 1;
    memset(w[0], 0, sizeof w[0]);
    ok[0] = all;
    c->one[0] = 0;
    for (int y = 1; y < (1 << d); y++) {
        int low = lowest_bit((uint64_t)y);
        int in_span = 1;
        for (int i = 0; i < d; i++) {
            w[y][i] = w[y & (y - 1)][i] + phi[i][low];
            if (i >= r && w[y][i] != 0)
                in_span = 0;
        }
        ok[y] = c->one[y] = 0;
        if (!in_span)
            continue;
        span |= (uint64_t)1 << y;
        int64_t t[MAXP];
        t[0] = 0;
        ok[y] = 1;
        for (int s = 1; s < nsig; s++) {
            t[s] = t[s & (s - 1)] + w[y][lowest_bit((uint64_t)s)];
            if (t[s] == 0)
                ok[y] |= (uint64_t)1 << s;
            else if (t[s] == c->den) {
                ok[y] |= (uint64_t)1 << s;
                c->one[y] |= (uint64_t)1 << s;
            }
        }
    }
    c->valid = all;
    for (int y = 1; y < (1 << d); y++)
        if ((sset >> y) & 1)
            c->valid &= ok[y];
    c->closed = 0;
    for (int y = 1; y < (1 << d); y++)
        if (((span >> y) & 1) && (ok[y] & c->valid) == c->valid)
            c->closed |= (uint64_t)1 << y;
}

/* Product-matrix rows of the closed set `closed` against the valid
   patterns of c, which may be the closure data of any set whose closure
   is `closed`: columns are the origin and then the points of `closed` in
   ascending order, bit n-1-j of a row is the product with column j, rows
   go by increasing sigma.  Returns the row count and sets *n. */
static int rows_of(int d, uint64_t closed, const closure_t *c, uint64_t *rows, int *n)
{
    int members[MAXP], nm = 0, nrows = 0;
    members[nm++] = 0;
    for (int y = 1; y < (1 << d); y++)
        if ((closed >> y) & 1)
            members[nm++] = y;
    for (int s = 0; s < (1 << c->rank); s++) {
        if (!((c->valid >> s) & 1))
            continue;
        uint64_t row = 0;
        for (int j = 0; j < nm; j++)
            if ((c->one[members[j]] >> s) & 1)
                row |= (uint64_t)1 << (nm - 1 - j);
        rows[nrows++] = row;
    }
    *n = nm;
    return nrows;
}

/* Closure data of the candidate whose closure is the lectically next
   closed set after `current`; 0 at the end. */
static int next_closed(int d, uint64_t current, closure_t *c)
{
    for (int i = (1 << d) - 1; i > 0; i--) {
        uint64_t bit = (uint64_t)1 << i, below = bit - 1;
        if (current & bit)
            continue;
        close_set(d, (current & below) | bit, c);
        if ((c->closed & below) == (current & below))
            return 1;
    }
    return 0;
}

static void sort_u64(uint64_t *x, int n)
{
    for (int i = 1; i < n; i++) {
        uint64_t key = x[i];
        int j = i - 1;
        while (j >= 0 && x[j] > key) {
            x[j + 1] = x[j];
            j--;
        }
        x[j + 1] = key;
    }
}

/* Bit m-1-i of out[j] is bit n-1-j of in[i]. */
static void transpose(const uint64_t *in, int m, int n, uint64_t *out)
{
    for (int j = 0; j < n; j++) {
        out[j] = 0;
        for (int i = 0; i < m; i++)
            if ((in[i] >> (n - 1 - j)) & 1)
                out[j] |= (uint64_t)1 << (m - 1 - i);
    }
}

/* Hash set of fixed-size records of `stride` words, the key in the
   first words; slots hold record index + 1, 0 when empty. */
typedef struct {
    uint64_t *recs;
    int32_t *slots;
    int stride, cap, count;
} table_t;

static void table_init(table_t *t, uint64_t *recs, int32_t *slots, int stride, int cap)
{
    t->recs = recs;
    t->slots = slots;
    t->stride = stride;
    t->cap = cap;
    t->count = 0;
    memset(slots, 0, 2 * (size_t)cap * sizeof *slots);
}

/* The record whose first len words equal key, added when absent;
   NULL when it is absent and the table is full. */
static uint64_t *table_get(table_t *t, const uint64_t *key, int len)
{
    uint64_t h = 0;
    for (int i = 0; i < len; i++) {
        h = (h ^ key[i]) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 31;
    }
    uint64_t nslots = 2 * (uint64_t)t->cap;
    for (uint64_t s = h % nslots;; s = (s + 1) % nslots) {
        int32_t k = t->slots[s];
        if (k == 0) {
            if (t->count == t->cap)
                return NULL;
            uint64_t *rec = t->recs + (size_t)t->count * t->stride;
            memset(rec, 0, t->stride * sizeof *rec);
            memcpy(rec, key, len * sizeof *key);
            t->slots[s] = ++t->count;
            return rec;
        }
        uint64_t *rec = t->recs + (size_t)(k - 1) * t->stride;
        if (memcmp(rec, key, len * sizeof *key) == 0)
            return rec;
    }
}

/* ---- exported ---------------------------------------------------- */

int bsp_closure_and_rank(int d, uint64_t sset, uint64_t *closed)
{
    closure_t c;
    close_set(d, sset, &c);
    *closed = c.closed;
    return c.rank;
}

/* rows: 64 words; returns the row count and sets *n. */
int bsp_pair_rows(int d, uint64_t closed, uint64_t *rows, int *n)
{
    closure_t c;
    close_set(d, closed, &c);
    return rows_of(d, closed, &c, rows, n);
}

int bsp_next_closed(int d, uint64_t current, uint64_t *next)
{
    closure_t c;
    if (!next_closed(d, current, &c))
        return 0;
    *next = c.closed;
    return 1;
}

/* Sort rows and columns alternately until stable (at most 6 rounds),
   in place; bsp._kernel_py.heuristic_form adds the byte encoding. */
void bsp_heuristic_form(uint64_t *rows, int m, int n)
{
    uint64_t cols[MAXP], next[MAXP];
    sort_u64(rows, m);
    for (int round = 0; round < 6; round++) {
        transpose(rows, m, n, cols);
        sort_u64(cols, n);
        transpose(cols, n, m, next);
        sort_u64(next, m);
        int same = memcmp(next, rows, m * sizeof *rows) == 0;
        memcpy(rows, next, m * sizeof *rows);
        if (same)
            break;
    }
}

/*
 * Closed sets whose pattern on the cube points 1..top_count is p_index,
 * in lectic order, as in bsp._kernel_py.enum_branch.  Each spanning one
 * is reduced to its heuristic form and kept in a table of cap records of
 * FORM_WORDS words: header (row count | column count << 8), the sorted
 * rows, zero padding, and the smallest mask with that form.
 *
 * state: [last set visited, visited count, spanning count, phase], phase
 * 0 to start, 1 to go on after the last set, 2 when the branch is done.
 * A call stops with phase 1 as soon as the table is full; the caller
 * reads the records and calls again.  slots: 2*cap words.  Returns the
 * record count.
 */
int bsp_enum_branch(int d, int top_count, uint64_t p_index, uint64_t *state,
                    uint64_t *recs, int32_t *slots, int cap)
{
    uint64_t top_bits = 0, p_bits = 0;
    for (int t = 0; t < top_count; t++) {
        top_bits |= (uint64_t)1 << (t + 1);
        if ((p_index >> t) & 1)
            p_bits |= (uint64_t)1 << (t + 1);
    }
    table_t tab;
    table_init(&tab, recs, slots, FORM_WORDS, cap);
    closure_t c;
    int found;
    if (state[3] == 0) {
        close_set(d, p_bits, &c);
        found = c.closed == p_bits || next_closed(d, p_bits, &c);
    } else {
        found = state[3] == 1 && next_closed(d, state[0], &c);
    }
    while (found && (c.closed & top_bits) == p_bits) {
        uint64_t a = c.closed;
        state[0] = a;
        state[1]++;
        if (c.rank == d) {
            uint64_t key[FORM_WORDS];
            int n, m = rows_of(d, a, &c, key + 1, &n);
            state[2]++;
            bsp_heuristic_form(key + 1, m, n);
            key[0] = (uint64_t)m | (uint64_t)n << 8;
            uint64_t *rec = table_get(&tab, key, 1 + m);
            /* a new record holds mask 0, and a spanning set is not empty */
            if (rec[FORM_WORDS - 1] == 0 || a < rec[FORM_WORDS - 1])
                rec[FORM_WORDS - 1] = a;
            if (tab.count == cap) {
                state[3] = 1;
                return tab.count;
            }
        }
        found = next_closed(d, a, &c);
    }
    state[3] = 2;
    return tab.count;
}
