/**
 * @file
 * Tests for the compiler: mapping (blocking and ordering decisions),
 * code generation (structural validity, SPMD communication alignment,
 * capacity diagnostics), and the compiled layout.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/hash.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "isa/assembler.hh"
#include "workloads/benchmarks.hh"

namespace manna::compiler
{
namespace
{

mann::MannConfig
smallMann()
{
    mann::MannConfig cfg;
    cfg.memN = 64;
    cfg.memM = 48;
    cfg.controllerWidth = 24;
    cfg.inputDim = 4;
    cfg.outputDim = 4;
    cfg.numReadHeads = 2;
    cfg.numWriteHeads = 1;
    return cfg;
}

// ---------------------------------------------------------------------
// Mapping
// ---------------------------------------------------------------------

TEST(Mapping, DistributionForcesMDistribOne)
{
    const Mapping m = computeMapping(smallMann(),
                                     arch::MannaConfig::baseline16());
    EXPECT_EQ(m.mDistrib, 1u);
    EXPECT_EQ(m.nDistrib, 16u);
    EXPECT_EQ(m.localRowsMax, 4u);
}

TEST(Mapping, BlockMEqualsBufferWidth)
{
    const arch::MannaConfig ac = arch::MannaConfig::baseline16();
    const Mapping m = computeMapping(smallMann(), ac);
    for (const auto &km : m.kernels)
        EXPECT_EQ(km.blockM, ac.matrixBufferWidthWords)
            << mann::toString(km.kernel);
}

TEST(Mapping, BlockNFitsHalfScratchpadWithPadding)
{
    const arch::MannaConfig ac = arch::MannaConfig::baseline16();
    // 2048-word half; padded pitch 33 -> 62 rows; unpadded -> 64.
    EXPECT_EQ(chooseBlockN(ac, 1000, true), 62u);
    EXPECT_EQ(chooseBlockN(ac, 1000, false), 64u);
    // Clamped to the actual row count.
    EXPECT_EQ(chooseBlockN(ac, 10, true), 10u);
}

TEST(Mapping, TransposedKernelsMarked)
{
    const Mapping m = computeMapping(smallMann(),
                                     arch::MannaConfig::baseline16());
    EXPECT_TRUE(m.forKernel(mann::Kernel::KeySimilarity).transposed);
    EXPECT_TRUE(m.forKernel(mann::Kernel::Heads).transposed);
    EXPECT_FALSE(m.forKernel(mann::Kernel::SoftRead).transposed);
    EXPECT_FALSE(m.forKernel(mann::Kernel::SoftWrite).transposed);
}

TEST(Mapping, OrderingPicksCheaperCost)
{
    const Mapping m = computeMapping(smallMann(),
                                     arch::MannaConfig::baseline16());
    for (const auto &km : m.kernels) {
        const double chosen =
            km.blockLoop == LoopOrder::OutputStationary
                ? km.blockLoopCost[0]
                : km.blockLoopCost[1];
        EXPECT_LE(chosen, km.blockLoopCost[0]);
        EXPECT_LE(chosen, km.blockLoopCost[1]);
        const double chosenCompute =
            km.computeLoop == LoopOrder::OutputStationary
                ? km.computeLoopCost[0]
                : km.computeLoopCost[1];
        EXPECT_LE(chosenCompute, km.computeLoopCost[0]);
        EXPECT_LE(chosenCompute, km.computeLoopCost[1]);
    }
}

TEST(Mapping, DescribeListsKernels)
{
    const Mapping m = computeMapping(smallMann(),
                                     arch::MannaConfig::baseline16());
    const std::string text = m.describe();
    EXPECT_NE(text.find("key-similarity"), std::string::npos);
    EXPECT_NE(text.find("stationary"), std::string::npos);
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

TEST(Codegen, ProducesAllSegments)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::withTiles(4));
    ASSERT_EQ(model.stepSegments.size(), 5u);
    EXPECT_EQ(model.stepSegments[0].group, mann::KernelGroup::Heads);
    EXPECT_EQ(model.stepSegments[1].group,
              mann::KernelGroup::KeySimilarity);
    EXPECT_EQ(model.stepSegments[2].group,
              mann::KernelGroup::Addressing);
    EXPECT_EQ(model.stepSegments[3].group,
              mann::KernelGroup::SoftRead);
    EXPECT_EQ(model.stepSegments[4].group,
              mann::KernelGroup::SoftWrite);
    for (const auto &seg : model.stepSegments)
        EXPECT_EQ(seg.tilePrograms.size(), 4u);
}

TEST(Codegen, AllProgramsStructurallyValid)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::baseline16());
    for (const auto &seg : model.stepSegments)
        for (const auto &prog : seg.tilePrograms)
            EXPECT_EQ(prog.validate(), "") << seg.name;
}

TEST(Codegen, CommSequencesAlignedAcrossTiles)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::baseline16());
    for (const auto &seg : model.stepSegments) {
        // Collect (opcode, payload length) sequences per tile; they
        // must be identical for the bulk-synchronous execution model.
        std::vector<std::vector<std::pair<int, std::uint32_t>>> comms(
            seg.tilePrograms.size());
        for (std::size_t t = 0; t < seg.tilePrograms.size(); ++t) {
            for (const auto &inst :
                 seg.tilePrograms[t].instructions()) {
                if (inst.op == isa::Opcode::Reduce)
                    comms[t].push_back({0, inst.srcA.len});
                else if (inst.op == isa::Opcode::Broadcast)
                    comms[t].push_back({1, inst.dst.len});
            }
        }
        for (std::size_t t = 1; t < comms.size(); ++t)
            EXPECT_EQ(comms[t], comms[0])
                << seg.name << " tile " << t;
    }
}

TEST(Codegen, ProgramsFitInstructionMemory)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::baseline16());
    EXPECT_LE(model.maxProgramLength(),
              model.archCfg.instMemEntries);
}

TEST(Codegen, CommTagsPresent)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::withTiles(4));
    // The heads segment starts with the hidden broadcast.
    const auto &heads = model.stepSegments[0].tilePrograms[0];
    ASSERT_FALSE(heads.empty());
    EXPECT_EQ(heads.instructions()[0].op, isa::Opcode::Broadcast);
    EXPECT_EQ(commTagOf(heads.instructions()[0].count),
              CommTag::HiddenIn);

    // The soft-read segment ends with one tagged reduce per read
    // head.
    const auto &reads = model.stepSegments[3].tilePrograms[0];
    std::size_t tagged = 0;
    for (const auto &inst : reads.instructions()) {
        if (inst.op == isa::Opcode::Reduce &&
            commTagOf(inst.count) == CommTag::ReadVectorOut) {
            EXPECT_LT(commIndexOf(inst.count),
                      model.mannCfg.numReadHeads);
            ++tagged;
        }
    }
    EXPECT_EQ(tagged, model.mannCfg.numReadHeads);
}

TEST(Codegen, PackCommTagRoundTrip)
{
    const std::uint32_t packed =
        packCommTag(CommTag::ReadVectorOut, 3);
    EXPECT_EQ(commTagOf(packed), CommTag::ReadVectorOut);
    EXPECT_EQ(commIndexOf(packed), 3u);
    EXPECT_EQ(commTagOf(0), CommTag::None);
}

TEST(Codegen, LayoutPartitionsCoverAllRows)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::baseline16());
    const auto &mem = model.layout.memory;
    std::size_t total = 0;
    for (std::size_t t = 0; t < mem.rowCount.size(); ++t) {
        EXPECT_EQ(mem.rowStart[t], total);
        total += mem.rowCount[t];
    }
    EXPECT_EQ(total, model.mannCfg.memN);

    ASSERT_EQ(model.layout.headWeights.size(), 3u);
    for (std::size_t h = 0; h < 3; ++h) {
        const auto &part = model.layout.headWeights[h];
        std::size_t rows = 0;
        for (auto c : part.rowCount)
            rows += c;
        const std::size_t expected =
            h < 2 ? model.mannCfg.readHeadParamDim()
                  : model.mannCfg.writeHeadParamDim();
        EXPECT_EQ(rows, expected);
        EXPECT_EQ(part.cols, model.mannCfg.hiddenDim() + 1);
    }
}

TEST(Codegen, DmatUsedOnlyWithHardwareSupport)
{
    const CompiledModel with =
        compile(smallMann(), arch::MannaConfig::baseline16());
    const CompiledModel without =
        compile(smallMann(), arch::MannaConfig::memHeavy());
    auto countOp = [](const CompiledModel &m, isa::Opcode op) {
        std::size_t n = 0;
        for (const auto &seg : m.stepSegments)
            for (const auto &p : seg.tilePrograms)
                for (const auto &inst : p.instructions())
                    n += inst.op == op;
        return n;
    };
    EXPECT_GT(countOp(with, isa::Opcode::DmatLoadM), 0u);
    EXPECT_EQ(countOp(without, isa::Opcode::DmatLoadM), 0u);
    EXPECT_GT(countOp(without, isa::Opcode::DmaLoadM), 0u);
}

TEST(Codegen, GeneratedCodeDisassemblesAndReassembles)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::withTiles(4));
    // The key-similarity segment carries no comm tags, so its
    // disassembly must round-trip exactly through the assembler.
    const auto &prog = model.stepSegments[1].tilePrograms[0];
    const isa::AssembleResult result =
        isa::assemble(prog.disassemble());
    ASSERT_TRUE(result.ok())
        << result.error << " line " << result.errorLine;
    ASSERT_EQ(result.program.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(result.program.instructions()[i],
                  prog.instructions()[i]);
}

TEST(Codegen, LoopOrderingChoiceReflectsMeasuredTraffic)
{
    // Force both block-loop orderings for soft read and check that
    // the generated schedules actually differ in structure (loop
    // nesting) while remaining functionally valid. The cost model's
    // chosen ordering must not be more expensive than the rejected
    // one according to its own estimates (checked in
    // Mapping.OrderingPicksCheaperCost); here we confirm codegen
    // honours the decision.
    const mann::MannConfig mc = smallMann();
    const arch::MannaConfig ac = arch::MannaConfig::withTiles(4);
    Mapping mapping = computeMapping(mc, ac);
    auto &softRead = const_cast<KernelMapping &>(
        mapping.forKernel(mann::Kernel::SoftRead));

    softRead.blockLoop = LoopOrder::OutputStationary;
    const CompiledModel os = generateCode(mc, ac, mapping);
    softRead.blockLoop = LoopOrder::InputStationary;
    const CompiledModel is = generateCode(mc, ac, mapping);

    const auto &osProg = os.stepSegments[3].tilePrograms[0];
    const auto &isProg = is.stepSegments[3].tilePrograms[0];
    EXPECT_EQ(osProg.validate(), "");
    EXPECT_EQ(isProg.validate(), "");
    // Different nesting => different disassembly.
    EXPECT_NE(osProg.disassemble(), isProg.disassemble());
    // Both orderings stream every memory element exactly once, so
    // the dynamic DMA count matches.
    auto dmaCount = [](const isa::Program &p) {
        std::uint64_t n = 0;
        std::uint64_t mult = 1;
        std::vector<std::uint64_t> stack{1};
        for (const auto &inst : p.instructions()) {
            if (inst.op == isa::Opcode::Loop) {
                stack.push_back(stack.back() * inst.count);
            } else if (inst.op == isa::Opcode::EndLoop) {
                stack.pop_back();
            } else if (inst.op == isa::Opcode::DmaLoadM) {
                n += stack.back();
            }
            mult = stack.back();
        }
        (void)mult;
        return n;
    };
    EXPECT_EQ(dmaCount(osProg), dmaCount(isProg));
}

TEST(Codegen, CapacityWarningsOnOversizedModel)
{
    mann::MannConfig big = smallMann();
    big.memN = 1280;
    big.memM = 4000;
    big.controllerWidth = 256;
    big.numReadHeads = 3;
    const CompiledModel model =
        compile(big, arch::MannaConfig::baseline16());
    EXPECT_FALSE(model.warnings.empty());
}

TEST(Codegen, NoWarningsOnComfortableModel)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::baseline16());
    EXPECT_TRUE(model.warnings.empty());
}

TEST(CodegenValidation, StrictCapacityThrowsAssemblyError)
{
    mann::MannConfig big = smallMann();
    big.memN = 1280;
    big.memM = 4000;
    big.controllerWidth = 256;
    arch::MannaConfig ac = arch::MannaConfig::baseline16();
    ac.strictCapacity = true;
    try {
        compile(big, ac);
        FAIL() << "strict-capacity compile succeeded unexpectedly";
    } catch (const AssemblyError &e) {
        EXPECT_NE(std::string(e.what()).find("capacity violation"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.context().fingerprint, ac.fingerprint());
    }
}

TEST(CodegenValidation, MoreTilesThanRowsThrowsAssemblyError)
{
    mann::MannConfig tiny = smallMann();
    tiny.memN = 8;
    try {
        compile(tiny, arch::MannaConfig::baseline16());
        FAIL() << "undistributable shape compiled unexpectedly";
    } catch (const AssemblyError &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Codegen, DisassembleTileShowsSegments)
{
    const CompiledModel model =
        compile(smallMann(), arch::MannaConfig::withTiles(4));
    const std::string text = model.disassembleTile(0);
    EXPECT_NE(text.find("segment heads"), std::string::npos);
    EXPECT_NE(text.find("segment soft-write"), std::string::npos);
    EXPECT_NE(text.find("vmm"), std::string::npos);
}

// ---------------------------------------------------------------------
// Pinned programs
// ---------------------------------------------------------------------

void
hashString(Fnv1a &h, const std::string &s)
{
    h.u64(s.size()).bytes(s.data(), s.size());
}

void
hashPartition(Fnv1a &h, const RowPartition &part)
{
    h.u64(part.base).u64(part.cols);
    for (std::uint32_t v : part.rowStart)
        h.u64(v);
    for (std::uint32_t v : part.rowCount)
        h.u64(v);
}

/** Digest of every segment's name, group and per-tile program bytes,
 * then of the warning list. */
template <class Compiled>
void
hashProgramsAndWarnings(Fnv1a &h, const Compiled &model)
{
    for (const CompiledSegment &seg : model.stepSegments) {
        hashString(h, seg.name);
        h.u64(static_cast<std::uint64_t>(seg.group));
        for (const isa::Program &p : seg.tilePrograms)
            hashString(h, p.serialize());
    }
    for (const std::string &w : model.warnings)
        hashString(h, w);
}

std::uint64_t
digestOf(const CompiledModel &model)
{
    Fnv1a h;
    hashProgramsAndWarnings(h, model);
    const ChipLayout &l = model.layout;
    hashPartition(h, l.memory);
    for (const RowPartition &part : l.headWeights)
        hashPartition(h, part);
    for (std::uint32_t v : l.wPrevBase)
        h.u64(v);
    h.u64(l.matBufWords).u64(l.matSpadWords).u64(l.vecBufWords)
        .u64(l.vecSpadWords);
    return h.value();
}

std::uint64_t
digestOf(const CompiledDnc &model)
{
    Fnv1a h;
    hashProgramsAndWarnings(h, model);
    const DncLayout &l = model.layout;
    hashPartition(h, l.memory);
    hashPartition(h, l.link);
    hashPartition(h, l.interfaceW);
    h.u64(l.usageBase).u64(l.writeWBase).u64(l.precedenceBase);
    for (std::uint32_t v : l.wReadLocalBase)
        h.u64(v);
    for (std::uint32_t v : l.wPrevReadFullBase)
        h.u64(v);
    h.u64(l.matBufWords).u64(l.matSpadWords).u64(l.vecBufWords)
        .u64(l.vecSpadWords);
    return h.value();
}

mann::DncConfig
dncShape(std::size_t memN, std::size_t memM, std::size_t readHeads,
         std::size_t width)
{
    mann::DncConfig cfg;
    cfg.memN = memN;
    cfg.memM = memM;
    cfg.numReadHeads = readHeads;
    cfg.controllerWidth = width;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

TEST(Codegen, ProgramDigestsPinned)
{
    // Every compiled program, layout address and warning, for the
    // Table-2 shapes, the benchmarked DNC shapes and the edge cases
    // (empty tiles, no DMAT, the other soft-read loop order, several
    // read heads). Any change to instruction order, operands, flags,
    // count tags or region allocation moves a digest.
    std::vector<std::pair<std::string, std::uint64_t>> got;
    for (const auto &b : workloads::table2Suite())
        for (std::size_t tiles : {1u, 4u, 16u})
            got.push_back(
                {b.name + "@" + std::to_string(tiles),
                 digestOf(compile(b.config,
                                  arch::MannaConfig::withTiles(tiles)))});

    mann::MannConfig mc = smallMann();
    mc.memN = 50; // 16 tiles: tiles 13-15 hold no memory rows
    got.push_back({"ntm50@16",
                   digestOf(compile(mc, arch::MannaConfig::baseline16()))});
    arch::MannaConfig noDmat = arch::MannaConfig::withTiles(4);
    noDmat.hasDmat = false;
    got.push_back({"ntm-nodmat@4", digestOf(compile(smallMann(), noDmat))});
    {
        const arch::MannaConfig ac = arch::MannaConfig::withTiles(4);
        Mapping mapping = computeMapping(smallMann(), ac);
        auto &softRead = const_cast<KernelMapping &>(
            mapping.forKernel(mann::Kernel::SoftRead));
        softRead.blockLoop =
            softRead.blockLoop == LoopOrder::InputStationary
                ? LoopOrder::OutputStationary
                : LoopOrder::InputStationary;
        got.push_back({"ntm-flipped-order@4",
                       digestOf(generateCode(smallMann(), ac, mapping))});
    }

    const auto &travers = workloads::benchmarkByName("travers").config;
    for (std::size_t rows : {512u, 1024u, 2048u}) {
        mann::DncConfig dc = dncShape(rows, 64, 2, 128);
        dc.inputDim = travers.inputDim;
        dc.outputDim = travers.outputDim;
        for (std::size_t tiles : {1u, 4u, 16u}) {
            if (rows != 512 && tiles != 16)
                continue;
            got.push_back({"dnc" + std::to_string(rows) + "@" +
                               std::to_string(tiles),
                           digestOf(compileDnc(
                               dc, arch::MannaConfig::withTiles(tiles)))});
        }
    }
    for (std::size_t heads : {1u, 3u})
        got.push_back(
            {"dnc35x" + std::to_string(heads) + "@8",
             digestOf(compileDnc(dncShape(35, 12, heads, 32),
                                 arch::MannaConfig::withTiles(8)))});
    got.push_back({"dnc-nodmat@4",
                   digestOf(compileDnc(dncShape(40, 16, 2, 32), noDmat))});

    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"copy@1", 0xab22bc0f0f13f039ull},
        {"copy@4", 0xe37b7a7bc7acbd71ull},
        {"copy@16", 0x8e2b6fd073019bacull},
        {"rptcopy@1", 0xff5abb391f2bfd0eull},
        {"rptcopy@4", 0x8413f0c76aa22da9ull},
        {"rptcopy@16", 0x62dcd0765d446fe8ull},
        {"recall@1", 0x01f13be7a434eee4ull},
        {"recall@4", 0xad30af94c4e80e6bull},
        {"recall@16", 0x9a873e34a4205603ull},
        {"ngrams@1", 0x2c90d5a4e5b7ef60ull},
        {"ngrams@4", 0x373e2c54dc8e181cull},
        {"ngrams@16", 0xecf86d35f403f6c2ull},
        {"sort@1", 0x9ffcd63bb44dd602ull},
        {"sort@4", 0x0936a05a31bcf939ull},
        {"sort@16", 0xcb42aa66d5cba25cull},
        {"bAbI@1", 0x41aff22ac2e9dda4ull},
        {"bAbI@4", 0x2b116ef106399d2full},
        {"bAbI@16", 0x85f47ac4a5fa9f76ull},
        {"short@1", 0x0526b42277ed1c15ull},
        {"short@4", 0xb367c36a9c0d2011ull},
        {"short@16", 0x3ceadd799f3d2668ull},
        {"travers@1", 0x82d3bc15cb95e694ull},
        {"travers@4", 0xa47f5da96ea96357ull},
        {"travers@16", 0x820c8f232352e0d2ull},
        {"inf@1", 0x8270e807e8c35cd7ull},
        {"inf@4", 0x1af3a012273d9f00ull},
        {"inf@16", 0x09666f9d454fd9a7ull},
        {"shrdlu@1", 0x3d4e3524eb2124f8ull},
        {"shrdlu@4", 0x72c7688d6108029aull},
        {"shrdlu@16", 0xdc8229457d4be290ull},
        {"ntm50@16", 0x66547914dfbffd39ull},
        {"ntm-nodmat@4", 0x2d66cc74ba4106b2ull},
        {"ntm-flipped-order@4", 0xb8b00444e86b3dc2ull},
        {"dnc512@1", 0x3b703c1838525121ull},
        {"dnc512@4", 0xe6f77bfac5d6f4b0ull},
        {"dnc512@16", 0x23fe1600e178fc99ull},
        {"dnc1024@16", 0x03c769ff83b6f422ull},
        {"dnc2048@16", 0xfac875813d3d8f94ull},
        {"dnc35x1@8", 0x7f7543c5487d87dfull},
        {"dnc35x3@8", 0xd5a0f4860905da5full},
        {"dnc-nodmat@4", 0x3d70bd9e4ad7b7ecull},
    };
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first);
        EXPECT_EQ(got[i].second, want[i].second)
            << got[i].first << " digest 0x" << std::hex << got[i].second;
    }
}

class CodegenShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CodegenShapeSweep, ValidForAwkwardShapes)
{
    const auto [memN, memM, tiles] = GetParam();
    mann::MannConfig mc = smallMann();
    mc.memN = static_cast<std::size_t>(memN);
    mc.memM = static_cast<std::size_t>(memM);
    const CompiledModel model = compile(
        mc, arch::MannaConfig::withTiles(
                static_cast<std::size_t>(tiles)));
    for (const auto &seg : model.stepSegments)
        for (const auto &prog : seg.tilePrograms)
            EXPECT_EQ(prog.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodegenShapeSweep,
    ::testing::Values(std::tuple{65, 33, 4},   // remainders everywhere
                      std::tuple{64, 31, 8},   // partial column chunk
                      std::tuple{130, 100, 16},
                      std::tuple{1000, 24, 8},
                      std::tuple{17, 17, 2}));

} // namespace
} // namespace manna::compiler
